package backend

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"mltcp/internal/config"
	"mltcp/internal/harness"
	"mltcp/internal/telemetry"
)

// traceScenario is a short two-job MLTCP scenario exercised at both
// fidelities by the determinism tests.
func traceScenario() *config.Scenario {
	return &config.Scenario{
		Name:        "trace-two-gpt2",
		Policy:      "mltcp",
		DurationSec: 20,
		Jobs: []config.Job{
			{Name: "J1", Profile: "gpt2"},
			{Name: "J2", Profile: "gpt2"},
		},
	}
}

// runTraced runs the scenario with a fresh recorder and serializes the
// full trace.
func runTraced(t testing.TB, b Backend, seed uint64) (*Result, []byte) {
	t.Helper()
	return runTracedScenario(t, b, traceScenario(), seed)
}

func runTracedScenario(t testing.TB, b Backend, scn *config.Scenario, seed uint64) (*Result, []byte) {
	t.Helper()
	rec, buf, reg := telemetry.NewBuffered(telemetry.Options{})
	ctx := telemetry.WithRecorder(context.Background(), rec)
	res, err := b.Run(ctx, scn, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := telemetry.Write(&out, rec.Manifest(), buf.Events(), reg); err != nil {
		t.Fatal(err)
	}
	return res, out.Bytes()
}

func backendsUnderTest() []Backend {
	return []Backend{&Fluid{}, &Packet{}}
}

func TestTraceByteIdenticalSameSeed(t *testing.T) {
	for _, b := range backendsUnderTest() {
		t.Run(b.Name(), func(t *testing.T) {
			_, first := runTraced(t, b, 1)
			_, second := runTraced(t, b, 1)
			if len(first) == 0 {
				t.Fatal("empty trace")
			}
			if !bytes.Equal(first, second) {
				t.Fatal("same (scenario, seed) produced different traces")
			}
			_, other := runTraced(t, b, 2)
			if bytes.Equal(first, other) {
				t.Fatal("distinct seeds produced identical traces (seed not reaching the run)")
			}
		})
	}
}

// TestTraceByteIdenticalAcrossWorkerCounts replicates the traced run over
// harness pools of 1 and 8 workers: every point's serialized trace must be
// byte-identical regardless of scheduling, the property that makes traces
// usable as golden artifacts from parallel sweeps.
func TestTraceByteIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, b := range backendsUnderTest() {
		t.Run(b.Name(), func(t *testing.T) {
			if testing.Short() && b.Name() == "packet" {
				t.Skip("short mode")
			}
			const points = 4
			run := func(workers int) [][]byte {
				results := harness.Run(context.Background(),
					harness.Config{Workers: workers, BaseSeed: 7}, points,
					func(ctx context.Context, pt harness.Point) ([]byte, error) {
						rec, buf, reg := telemetry.NewBuffered(telemetry.Options{})
						ctx = telemetry.WithRecorder(ctx, rec)
						if _, err := b.Run(ctx, traceScenario(), pt.Seed); err != nil {
							return nil, err
						}
						var out bytes.Buffer
						if err := telemetry.Write(&out, rec.Manifest(), buf.Events(), reg); err != nil {
							return nil, err
						}
						return out.Bytes(), nil
					})
				traces, err := harness.Values(results)
				if err != nil {
					t.Fatal(err)
				}
				return traces
			}
			serial := run(1)
			parallel := run(8)
			for i := range serial {
				if !bytes.Equal(serial[i], parallel[i]) {
					t.Fatalf("point %d: trace differs between workers=1 and workers=8", i)
				}
			}
		})
	}
}

// TestTracingDoesNotPerturbResult runs the same scenario with and without
// a recorder: the Result must be identical — telemetry observes the run,
// it must never steer it.
func TestTracingDoesNotPerturbResult(t *testing.T) {
	for _, b := range backendsUnderTest() {
		t.Run(b.Name(), func(t *testing.T) {
			plain, err := b.Run(context.Background(), traceScenario(), 1)
			if err != nil {
				t.Fatal(err)
			}
			traced, _ := runTraced(t, b, 1)
			if !reflect.DeepEqual(plain, traced) {
				t.Fatalf("tracing changed the result:\nplain  %+v\ntraced %+v", plain, traced)
			}
		})
	}
}

// TestScoresRecomputableFromTrace decodes the serialized trace of each
// tier's run and checks that ResultFromTrace reproduces what the run
// reported: the whole Result header, the cluster header, every job's
// labels and, for the simulating tiers, the interleaving scores, the
// pairwise cluster scores and the phase timelines exactly — the
// acceptance property behind cmd/mltcp-trace. The learned tier's trace
// carries no iteration events (its manifest is marked predicted), so
// only its header and labels are rebuilt.
func TestScoresRecomputableFromTrace(t *testing.T) {
	cases := []struct {
		name string
		b    Backend
		scn  *config.Scenario
	}{
		{"fluid", &Fluid{}, traceScenario()},
		{"packet", &Packet{}, traceScenario()},
		{"learned", &Learned{}, traceScenario()},
		{"fluid/topology", &Fluid{}, clusterScenario()},
		{"learned/topology", &Learned{}, clusterScenario()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, raw := runTracedScenario(t, tc.b, tc.scn, 1)
			tr, err := telemetry.Read(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ResultFromTrace(tr.Manifest, tr.Events)
			if err != nil {
				t.Fatal(err)
			}
			if got.Backend != res.Backend || got.Scenario != res.Scenario || got.Policy != res.Policy ||
				got.Capacity != res.Capacity || got.Scale != res.Scale || got.Duration != res.Duration {
				t.Errorf("header from trace = %q %q %q %v %v %v, run reported %q %q %q %v %v %v",
					got.Backend, got.Scenario, got.Policy, got.Capacity, got.Scale, got.Duration,
					res.Backend, res.Scenario, res.Policy, res.Capacity, res.Scale, res.Duration)
			}
			if (got.Cluster == nil) != (res.Cluster == nil) {
				t.Fatalf("cluster from trace = %+v, run reported %+v", got.Cluster, res.Cluster)
			}
			if c, w := got.Cluster, res.Cluster; c != nil &&
				(c.Topology != w.Topology || c.Racks != w.Racks || c.Links != w.Links) {
				t.Errorf("cluster header from trace = %+v, run reported %+v", c, w)
			}
			if len(got.Jobs) != len(res.Jobs) {
				t.Fatalf("job count %d, want %d", len(got.Jobs), len(res.Jobs))
			}
			for i := range got.Jobs {
				g, w := &got.Jobs[i], &res.Jobs[i]
				if g.Name != w.Name || g.Profile != w.Profile || g.Ideal != w.Ideal ||
					g.BytesPerIter != w.BytesPerIter || g.SrcRack != w.SrcRack || g.DstRack != w.DstRack ||
					!reflect.DeepEqual(g.PathLinks, w.PathLinks) {
					t.Errorf("job %d labels from trace = %q %q %v %d %q %q %v, run reported %q %q %v %d %q %q %v", i,
						g.Name, g.Profile, g.Ideal, g.BytesPerIter, g.SrcRack, g.DstRack, g.PathLinks,
						w.Name, w.Profile, w.Ideal, w.BytesPerIter, w.SrcRack, w.DstRack, w.PathLinks)
				}
			}
			if tr.Manifest.Predicted != (res.Backend == NameLearned) {
				t.Errorf("manifest predicted = %v on the %s tier", tr.Manifest.Predicted, res.Backend)
			}
			if tr.Manifest.Predicted {
				return
			}
			if got.InterleavedAt != res.InterleavedAt {
				t.Errorf("InterleavedAt from trace = %d, run reported %d",
					got.InterleavedAt, res.InterleavedAt)
			}
			if got.OverlapScore != res.OverlapScore {
				t.Errorf("OverlapScore from trace = %v, run reported %v",
					got.OverlapScore, res.OverlapScore)
			}
			if !reflect.DeepEqual(got.Cluster, res.Cluster) {
				t.Errorf("cluster scores from trace:\n got  %+v\n want %+v", got.Cluster, res.Cluster)
			}
			for i := range got.Jobs {
				if !reflect.DeepEqual(got.Jobs[i].CommStarts, res.Jobs[i].CommStarts) {
					t.Errorf("job %d CommStarts diverge", i)
				}
				if !reflect.DeepEqual(got.Jobs[i].CommEnds, res.Jobs[i].CommEnds) {
					t.Errorf("job %d CommEnds diverge", i)
				}
				if !reflect.DeepEqual(got.Jobs[i].IterTimes, res.Jobs[i].IterTimes) {
					t.Errorf("job %d IterTimes diverge", i)
				}
				if !reflect.DeepEqual(got.Jobs[i].FCTs, res.Jobs[i].FCTs) {
					t.Errorf("job %d FCTs diverge", i)
				}
			}
		})
	}
}

func TestResultFromTraceRequiresManifest(t *testing.T) {
	if _, err := ResultFromTrace(nil, nil); err == nil {
		t.Fatal("nil manifest accepted")
	}
}

func TestNewBackendRegistry(t *testing.T) {
	for _, name := range Names() {
		b, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if b.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, b.Name())
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Fatal("unknown backend accepted")
	}
}
