package telemetry

import (
	"bytes"
	"cmp"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mltcp/internal/sim"
)

// TestReadAcceptsAnyKeyOrderAndWhitespace: an event line is any flat
// JSON object with the schema's keys, in any order, with JSON whitespace
// between tokens.
func TestReadAcceptsAnyKeyOrderAndWhitespace(t *testing.T) {
	want := Event{At: 10, Kind: KindIterEnd, Flow: 1, N: 3, M: 400000000}
	for _, line := range []string{
		`{"t":10,"kind":"iter_end","flow":1,"iter":3,"comm_ns":400000000}`,
		`{"comm_ns":400000000,"iter":3,"flow":1,"kind":"iter_end","t":10}`,
		"{ \"t\" :10 ,\t\"kind\":\r\"iter_end\", \"flow\": 1,\"iter\":3,\"comm_ns\":400000000 }",
		`{"iter":3,"kind":"iter_end","comm_ns":400000000,"t":10,"flow":1}   `,
	} {
		tr, err := Read(strings.NewReader(line + "\n"))
		if err != nil {
			t.Errorf("%s: %v", line, err)
			continue
		}
		if len(tr.Events) != 1 || tr.Events[0] != want {
			t.Errorf("%s decoded to %+v, want %+v", line, tr.Events, want)
		}
	}
}

// TestReadDecodesStringEscapes: link names decode as encoding/json
// decodes them — json.Marshal writes "a->b" with its '>' escaped.
func TestReadDecodesStringEscapes(t *testing.T) {
	for _, link := range []string{"a->b", "tor<0>&agg", `quote"back\slash`, "tab\tnl\n", "é- -😀"} {
		e := Event{At: 1, Kind: KindQueue, Link: link, N: 1, M: 2}
		var buf bytes.Buffer
		if err := Write(&buf, nil, []Event{e}, nil); err != nil {
			t.Fatal(err)
		}
		tr, err := Read(&buf)
		if err != nil {
			t.Fatalf("%q: %v", link, err)
		}
		if tr.Events[0].Link != link {
			t.Errorf("link %q decoded as %q", link, tr.Events[0].Link)
		}
	}
	tr, err := Read(strings.NewReader(`{"t":1,"kind":"queue","link":"😀 \ud800 é\/","bytes":1,"pkts":1}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Events[0].Link, "😀 � é/"; got != want {
		t.Errorf("escaped link decoded as %q, want %q", got, want)
	}
}

// TestReadFieldErrorsNameTheField: a bad field fails with its name and
// the line number.
func TestReadFieldErrorsNameTheField(t *testing.T) {
	for _, c := range []struct{ line, want string }{
		{`{"t":1,"kind":"retx","seq":5,"sqe":6}`, `unknown field "sqe" for event kind "retx"`},
		{`{"t":1,"kind":"retx","seq":5,"cwnd":6}`, `unknown field "cwnd" for event kind "retx"`},
		{`{"t":1,"kind":"retx","seq":5,"seq":6}`, `duplicate field "seq"`},
		{`{"t":1,"t":1,"kind":"retx","seq":5}`, `duplicate field "t"`},
		{`{"kind":"retx","t":1,"kind":"retx"}`, `duplicate field "kind"`},
		{`{"t":1,"kind":"retx","seq":5.5}`, `field "seq": want an integer, got 5.5`},
		{`{"t":1,"kind":"retx","seq":"5"}`, `field "seq": want an integer, got "5"`},
		{`{"t":1e3,"kind":"retx"}`, `field "t": want an integer`},
		{`{"t":1,"kind":"agg","ratio":"x"}`, `field "ratio": want a number, got "x"`},
		{`{"t":1,"kind":"agg","ratio":1e999}`, `field "ratio": number 1e999 out of range`},
		{`{"t":99999999999999999999,"kind":"retx"}`, `field "t": integer 99999999999999999999 out of range`},
		{`{"t":1,"kind":"queue","link":7}`, `field "link": want a string, got 7`},
		{`{"t":1,"kind":"retx","seq":null}`, `field "seq": want a string or a number`},
		{`{"t":1,"kind":"retx","seq":[5]}`, `field "seq": want a string or a number`},
		{`{"t":1,"kind":5}`, `field "kind": want a string, got 5`},
		{`{"t":1,"kind":"nope","x":[]}`, `unknown event kind "nope"`},
		{`{"t":1}`, `unknown event kind ""`},
	} {
		_, err := Read(strings.NewReader(`{"t":0,"kind":"retx","seq":1}` + "\n" + c.line + "\n"))
		if err == nil {
			t.Errorf("%s accepted", c.line)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "telemetry: line 2: ") || !strings.Contains(msg, c.want) {
			t.Errorf("%s: error %q, want line 2 and %q", c.line, msg, c.want)
		}
	}
}

// TestReadSyntaxErrors: malformed JSON is "corrupt or truncated", wherever
// on the line it is.
func TestReadSyntaxErrors(t *testing.T) {
	for _, line := range []string{
		`{"t":1,"kind":"retx","seq":01}`,
		`{"t":1,"kind":"retx","seq":-}`,
		`{"t":1,"kind":"retx","seq":1.}`,
		`{"t":1,"kind":"retx","seq":1e}`,
		`{"t":1,"kind":"retx","seq":1}}`,
		`{"t":1,"kind":"retx",}`,
		`{"t":1 "kind":"retx"}`,
		`{"t":1,"kind":"re\x"}`,
		`{"t":1,"kind":"re\u00"}`,
		"{\"t\":1,\"kind\":\"re\x01tx\"}",
		`{t:1}`,
		`[{"t":1}]`,
		`{"t":1,"kind":"retx","seq":tru}`,
	} {
		_, err := Read(strings.NewReader(line + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 1: corrupt or truncated") {
			t.Errorf("%s: error %v, want line 1 corrupt or truncated", line, err)
		}
	}
}

// TestDecodeEventLinesAllocateNothing pins the decoder's cost: a
// link-free event line allocates nothing, a link allocates only the
// first time its name is seen, and Read adds only the Events slice's
// growth on top.
func TestDecodeEventLinesAllocateNothing(t *testing.T) {
	var lines [][]byte
	for _, e := range allKindsEvents() {
		b, err := appendEvent(nil, e, nil)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, b)
	}
	d := newLineDecoder()
	allocs := testing.AllocsPerRun(100, func() {
		for _, line := range lines {
			if _, err := d.decode(line); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("decoding %d event lines allocated %v times, want 0", len(lines), allocs)
	}

	readAllocs := func(n int) float64 {
		trace := benchTrace(t, n, false)
		return testing.AllocsPerRun(10, func() {
			if _, err := Read(bytes.NewReader(trace)); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Against a trace with the same manifest and metrics lines and no
	// events, 4096 events may add only the Events slice's doublings.
	if extra := readAllocs(4096) - readAllocs(0); extra > 16 {
		t.Errorf("Read of 4096 link-free events allocated %v times more than of none, want <= 16", extra)
	}
}

// TestSampledSeenFlowAllocatesNothing: the limiter's per-emission lookup
// and update allocate nothing once the flow has been seen.
func TestSampledSeenFlowAllocatesNothing(t *testing.T) {
	rec, _, _ := NewBuffered(Options{SampleEvery: sim.Millisecond})
	rec.CwndUpdate(0, 7, 1, 1, 0)
	rec.AggEval(0, 7, 1, linearAgg)
	at := sim.Time(0)
	allocs := testing.AllocsPerRun(1000, func() {
		at += 100 * sim.Microsecond
		rec.sampled(&rec.lastCwnd, 7, at)
		rec.sampled(&rec.lastAgg, 7, at)
	})
	if allocs != 0 {
		t.Errorf("sampled on a seen flow allocated %v times, want 0", allocs)
	}
}

// benchTrace encodes a synthetic trace of n events cycling through every
// kind, with or without the link-carrying kinds, plus a manifest and a
// metrics line.
func benchTrace(tb testing.TB, n int, withLinks bool) []byte {
	tb.Helper()
	var kinds []Event
	for _, e := range allKindsEvents() {
		if withLinks || e.Link == "" {
			kinds = append(kinds, e)
		}
	}
	events := make([]Event, n)
	for i := range events {
		e := kinds[i%len(kinds)]
		e.At = sim.Time(i) * 37 * sim.Microsecond
		e.Flow = 1 + i%4
		e.N += int64(i)
		e.V0 += float64(i) / 3
		e.V1 *= 1 + float64(i)/7
		events[i] = e
	}
	reg := NewRegistry()
	reg.Counter("tcp.retransmits").Add(3)
	var buf bytes.Buffer
	if err := Write(&buf, benchManifest(), events, reg); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// identicalEvent compares events field by field, floats by their bits.
func identicalEvent(a, b Event) bool {
	return a.At == b.At && a.Kind == b.Kind && a.Flow == b.Flow && a.Link == b.Link &&
		a.N == b.N && a.M == b.M &&
		math.Float64bits(a.V0) == math.Float64bits(b.V0) &&
		math.Float64bits(a.V1) == math.Float64bits(b.V1)
}

func checkEvents(t *testing.T, what string, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !identicalEvent(got[i], want[i]) {
			t.Fatalf("%s: event %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// FuzzRead checks the trace reader against the frozen encoding/json
// reader it replaced:
//
//  1. Read never panics.
//  2. Whatever Read accepts, the reference accepts too, with an
//     identical Trace (floats compared by bits). Read is stricter — it
//     rejects unknown, duplicated, mistyped and null fields, and keys
//     matched only case-insensitively, which the reference ignored or
//     tolerated — so the converse does not hold.
//  3. Write's output for an accepted trace reads back to the same events
//     and re-encodes byte-identically.
//
// Run it with go test -run='^$' -fuzz=FuzzRead ./internal/telemetry.
func FuzzRead(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "schema.golden.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, line := range bytes.Split(golden, []byte("\n")) {
		f.Add(line)
	}
	for _, s := range []string{
		`{"t":2,"kind":"retx","flow":1,`,
		`{"t":2,"kind":"cw`,
		`{not json`,
		`{"t":1,"kind":"nope"}`,
		`{"t":6,"kind":"queue","link":"a->b","bytes":30000,"pkts":20}`,
		`{"t":6,"kind":"queue","link":"😀\ud800\"\\\/\b\f\n\r\t","bytes":1,"pkts":2}`,
		`{"pkts":20,"bytes":30000,"link":"l","kind":"queue","t":6}`,
		" {\t\"t\" : 5 ,\"kind\":\"agg\" ,\"flow\":1,\"ratio\":0.25,\"factor\":6.25e-1 } ",
		`{"t":7,"kind":"drop","bytes":9007199254740993}`,
		`{"t":1,"kind":"retx","seq":5,"seq":6}`,
		`{"t":1,"kind":"retx","seq":null}`,
		`{"T":1,"KIND":"retx","Seq":5}`,
		`{"kind":"manifest","schema":1,"jobs":[]}`,
		`{"schema":1,"kind":"manifest"}`,
		`{"kind":"metrics","counters":{"a":1}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := Read(bytes.NewReader(in))
		if err != nil {
			return
		}
		want, err := referenceRead(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("Read accepted what the reference rejects: %v", err)
		}
		if !reflect.DeepEqual(got.Manifest, want.Manifest) || !reflect.DeepEqual(got.Metrics, want.Metrics) {
			t.Fatalf("manifest or metrics differ from the reference")
		}
		// The reference decoded every "bytes" through float64, so
		// integer byte counts above 2^53 came out rounded; Read parses
		// them exactly. Apply the reference's rounding before comparing.
		asRef := slices.Clone(got.Events)
		for i, e := range asRef {
			if e.Kind == KindQueue || e.Kind == KindDrop || e.Kind == KindECNMark {
				asRef[i].N = int64(float64(e.N))
			}
		}
		checkEvents(t, "Read vs reference", asRef, want.Events)

		var enc bytes.Buffer
		if err := Write(&enc, got.Manifest, got.Events, nil); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("Write output does not read back: %v\n%s", err, enc.Bytes())
		}
		sorted := slices.Clone(got.Events)
		slices.SortStableFunc(sorted, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
		checkEvents(t, "Write round trip", back.Events, sorted)
		var again bytes.Buffer
		if err := Write(&again, back.Manifest, back.Events, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), again.Bytes()) {
			t.Fatalf("re-encoding differs:\n%s\n%s", enc.Bytes(), again.Bytes())
		}
	})
}
