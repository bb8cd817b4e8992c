package backend

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mltcp/internal/config"
	"mltcp/internal/fluid"
	"mltcp/internal/telemetry"
	"mltcp/internal/units"
)

// clusterScenario is a small fat-tree scenario mixing explicit and
// automatic placement, capped and uncapped jobs.
func clusterScenario() *config.Scenario {
	return &config.Scenario{
		Name:        "cluster-smoke",
		Policy:      "mltcp",
		DurationSec: 30,
		Topology:    &config.Topology{Kind: config.KindFatTree, K: 4},
		Jobs: []config.Job{
			{Name: "A", Profile: "gpt3", SrcRack: "rack0", DstRack: "rack7", Iters: 5},
			{Name: "B", Profile: "gpt2", SrcRack: "rack0", DstRack: "rack7"},
			{Name: "C", Profile: "bert", Count: 3},
		},
	}
}

func TestClusterFluidRun(t *testing.T) {
	scn := clusterScenario()
	res, err := (&Fluid{}).Run(context.Background(), scn, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cluster
	if c == nil {
		t.Fatal("topology run has no cluster summary")
	}
	if c.Topology != "fattree-4" || c.Racks != 8 || c.Links != 96 {
		t.Errorf("cluster identity = %+v", c)
	}
	if c.SharingPairs+c.DisjointPairs != len(res.Jobs)*(len(res.Jobs)-1)/2 {
		t.Errorf("pair classes %d+%d do not cover all pairs", c.SharingPairs, c.DisjointPairs)
	}
	// A and B share rack0->rack7; they must be a sharing pair, so the
	// class is populated.
	if c.SharingPairs == 0 {
		t.Error("no sharing pairs despite co-placed jobs")
	}
	for i, j := range res.Jobs {
		if len(j.PathLinks) == 0 {
			t.Errorf("job %s has no path", j.Name)
		}
		if j.SrcRack == "" || j.DstRack == "" {
			t.Errorf("job %s has no placement", j.Name)
		}
		if i == 0 {
			if j.SrcRack != "rack0" || j.DstRack != "rack7" {
				t.Errorf("explicit placement lost: %s->%s", j.SrcRack, j.DstRack)
			}
			// 30s fits far more than 5 GPT-3 iterations: the cap must bite.
			if got := j.Iterations(); got != 5 {
				t.Errorf("capped job completed %d iterations, want 5", got)
			}
		}
	}
	if res.Jobs[1].Iterations() < 10 {
		t.Errorf("uncapped job completed only %d iterations", res.Jobs[1].Iterations())
	}
	// Equal rack pair but distinct hosts: A and B must not share the
	// host uplink (their first links differ).
	if res.Jobs[0].PathLinks[0] == res.Jobs[1].PathLinks[0] {
		t.Errorf("co-placed jobs share a source host: %v vs %v",
			res.Jobs[0].PathLinks, res.Jobs[1].PathLinks)
	}
}

// TestClusterExampleScenario exercises the checked-in cluster example:
// it loads and validates, runs on the fluid backend, and reports a
// populated cluster summary with its explicit placements intact.
func TestClusterExampleScenario(t *testing.T) {
	f, err := os.Open(filepath.FromSlash("../../examples/scenarios/cluster-fattree.json"))
	if err != nil {
		t.Fatal(err)
	}
	scn, err := config.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if scn.Topology == nil {
		t.Fatal("cluster example has no topology")
	}
	scn.DurationSec = 20 // the checked-in horizon is sized for the CLI
	res, err := (&Fluid{}).Run(context.Background(), &scn, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cluster
	if c == nil || c.Topology != "fattree-4" {
		t.Fatalf("cluster summary = %+v", c)
	}
	if c.SharingPairs == 0 {
		t.Error("example has co-placed jobs but no sharing pairs")
	}
	byName := map[string]JobResult{}
	for _, j := range res.Jobs {
		byName[j.Name] = j
	}
	for _, name := range []string{"A1", "A2"} {
		if j := byName[name]; j.SrcRack != "rack0" || j.DstRack != "rack4" {
			t.Errorf("job %s placed %s->%s, want rack0->rack4", name, j.SrcRack, j.DstRack)
		}
	}
	if j := byName["C"]; j.SrcRack != "rack2" || j.DstRack != "rack2" {
		t.Errorf("intra-rack job placed %s->%s", j.SrcRack, j.DstRack)
	} else if len(j.PathLinks) != 2 {
		t.Errorf("intra-rack path crosses %d links, want 2", len(j.PathLinks))
	}
}

func TestPacketRejectsTopology(t *testing.T) {
	_, err := (&Packet{}).Run(context.Background(), clusterScenario(), 1)
	if err == nil {
		t.Fatal("packet backend accepted a topology scenario")
	}
	if want := "fattree-4"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("error %q does not name the topology", err)
	}
}

// TestMaxMinMatchesLegacyOnGoldenScenarios is the allocator-substitution
// guarantee: every checked-in single-bottleneck scenario produces a
// byte-identical event trace and identical job timelines whether the
// fluid solver uses the legacy WeightedShare single-link model or the
// max-min allocator over a one-link network. This is what licenses
// weighted max-min as the topology-mode allocator without re-blessing
// any golden artifact.
func TestMaxMinMatchesLegacyOnGoldenScenarios(t *testing.T) {
	files, err := filepath.Glob(filepath.FromSlash("../../examples/scenarios/*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			f, err := os.Open(file)
			if err != nil {
				t.Fatal(err)
			}
			scn, err := config.Load(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			if scn.Topology != nil {
				t.Skip("already a topology scenario")
			}
			if _, ok := fluidPolicy(scn.Policy).(fluid.WeightedShare); !ok {
				t.Skipf("policy %s is not the weighted-share model", scn.Policy)
			}
			run := func(network bool) ([]byte, []*fluid.Job) {
				agg := scn.Agg()
				specs := scn.Specs()
				jobs := make([]*fluid.Job, len(specs))
				for i, spec := range specs {
					spec.Seed = jobSeed(1, spec)
					jobs[i] = &fluid.Job{Spec: spec, Agg: agg, MaxIterations: spec.MaxIterations}
				}
				rec, buf, reg := telemetry.NewBuffered(telemetry.Options{})
				cfg := fluid.Config{
					Capacity:    scn.Capacity(),
					Policy:      fluid.WeightedShare{},
					TraceBucket: telemetry.DefaultSampleEvery,
					Telemetry:   rec,
				}
				if network {
					cfg.Network = fluid.NewNetwork([]units.Rate{scn.Capacity()})
					for _, j := range jobs {
						j.Path = []int{0}
					}
				}
				fs := fluid.New(cfg, jobs)
				fs.Run(scn.Duration())
				fs.EmitTrace(rec)
				var out bytes.Buffer
				if err := telemetry.Write(&out, nil, buf.Events(), reg); err != nil {
					t.Fatal(err)
				}
				return out.Bytes(), jobs
			}
			legacyTrace, legacyJobs := run(false)
			mmTrace, mmJobs := run(true)
			if !bytes.Equal(legacyTrace, mmTrace) {
				t.Fatal("max-min over one link diverges from the legacy trace")
			}
			for i := range legacyJobs {
				if !reflect.DeepEqual(legacyJobs[i].CommStarts, mmJobs[i].CommStarts) ||
					!reflect.DeepEqual(legacyJobs[i].CommEnds, mmJobs[i].CommEnds) ||
					!reflect.DeepEqual(legacyJobs[i].IterDurations, mmJobs[i].IterDurations) {
					t.Fatalf("job %d timelines diverge between allocators", i)
				}
			}
		})
	}
}
