package backend_test

import (
	"context"
	"reflect"
	"testing"

	"mltcp/internal/backend"
	"mltcp/internal/config"
	"mltcp/internal/telemetry"
)

// TestTelemetryNilRecorderOverhead pins what tracing costs an untraced
// run on a 20 s 2×gpt2 MLTCP packet scenario: the Result is the same with
// no recorder (the nil fast path), a recorder into Discard, and a
// buffered recorder; the nil path allocates strictly less than building
// every event for Discard; and the buffered run does record events.
func TestTelemetryNilRecorderOverhead(t *testing.T) {
	scn := &config.Scenario{
		Name:        "telemetry-overhead",
		Policy:      "mltcp",
		DurationSec: 20,
		Jobs:        []config.Job{{Name: "J1", Profile: "gpt2"}, {Name: "J2", Profile: "gpt2"}},
	}
	run := func(ctx context.Context) *backend.Result {
		res, err := (&backend.Packet{}).Run(ctx, scn, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	discard := func() context.Context {
		return telemetry.WithRecorder(context.Background(), telemetry.New(telemetry.Discard, telemetry.Options{}))
	}

	base := run(context.Background())
	if got := run(discard()); !reflect.DeepEqual(got, base) {
		t.Error("a Discard recorder changed the Result")
	}
	rec, buf, _ := telemetry.NewBuffered(telemetry.Options{})
	if got := run(telemetry.WithRecorder(context.Background(), rec)); !reflect.DeepEqual(got, base) {
		t.Error("a buffered recorder changed the Result")
	}
	if buf.Len() == 0 {
		t.Error("the buffered run recorded no events")
	}

	if raceEnabled {
		return // allocation counts are not comparable under the race detector
	}
	nilAllocs := testing.AllocsPerRun(1, func() { run(context.Background()) })
	ctx := discard()
	discardAllocs := testing.AllocsPerRun(1, func() { run(ctx) })
	t.Logf("allocs/op: nil recorder %.0f, Discard %.0f; buffered run emitted %d events",
		nilAllocs, discardAllocs, buf.Len())
	if nilAllocs >= discardAllocs {
		t.Errorf("nil recorder %.0f allocs/op, Discard %.0f: the untraced path must allocate less",
			nilAllocs, discardAllocs)
	}
}
