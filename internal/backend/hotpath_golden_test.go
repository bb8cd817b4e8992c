package backend_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mltcp/internal/backend"
	"mltcp/internal/config"
	"mltcp/internal/diagnose"
	"mltcp/internal/experiments"
	"mltcp/internal/telemetry"
)

var updateHotpathGolden = flag.Bool("update-hotpath", false,
	"re-bless testdata/hotpath_golden.json (forbidden during hot-path refactors; see the test comment)")

// hotpathDigest is the per-point fingerprint: a SHA-256 of the full
// telemetry event stream (the byte-identical contract), of the Result's
// values (the DeepEqual contract, via valueDigest) and of the trace
// manifest's JSON with the build revision cleared (the header a trace
// reader rebuilds the Result from).
type hotpathDigest struct {
	Trace    string `json:"trace_sha256"`
	Result   string `json:"result_sha256"`
	Manifest string `json:"manifest_sha256"`
}

// hotpathPoint is one golden scenario/backend pair. Packet points cap the
// horizon so the full suite stays test-fast; the cap is part of the
// pinned configuration.
type hotpathPoint struct {
	name        string
	backendName string
	load        func(t *testing.T) *config.Scenario
}

func loadScenarioFile(t *testing.T, file string) *config.Scenario {
	t.Helper()
	f, err := os.Open(filepath.FromSlash("../../examples/scenarios/" + file))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	scn, err := config.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return &scn
}

func hotpathPoints() []hotpathPoint {
	fileScenario := func(file string, cap float64) func(t *testing.T) *config.Scenario {
		return func(t *testing.T) *config.Scenario {
			scn := loadScenarioFile(t, file)
			if cap > 0 && scn.DurationSec > cap {
				scn.DurationSec = cap
			}
			return scn
		}
	}
	synth := func(policy string, durationSec float64, profiles ...string) func(t *testing.T) *config.Scenario {
		return func(*testing.T) *config.Scenario {
			scn := &config.Scenario{Name: "golden-" + policy, Policy: policy, DurationSec: durationSec}
			for i, p := range profiles {
				scn.Jobs = append(scn.Jobs, config.Job{Name: fmt.Sprintf("J%d", i+1), Profile: p})
			}
			return scn
		}
	}
	return []hotpathPoint{
		// Every checked-in scenario on the fluid backend, full horizon.
		{"fluid/cluster-fattree", backend.NameFluid, fileScenario("cluster-fattree.json", 0)},
		{"fluid/fourjobs", backend.NameFluid, fileScenario("fourjobs.json", 0)},
		{"fluid/hetero", backend.NameFluid, fileScenario("hetero.json", 0)},
		{"fluid/noisy-six", backend.NameFluid, fileScenario("noisy-six.json", 0)},
		// Non-topology scenarios on the packet backend, horizon capped at
		// 5 simulated seconds (full horizons cost minutes of wall time).
		{"packet/fourjobs", backend.NamePacket, fileScenario("fourjobs.json", 5)},
		{"packet/hetero", backend.NamePacket, fileScenario("hetero.json", 5)},
		{"packet/noisy-six", backend.NamePacket, fileScenario("noisy-six.json", 5)},
		// Synthetic points covering paths the examples miss: the ECN/DCTCP
		// marking pipeline, and the fluid SRPT/PIAS allocators.
		{"packet/dctcp-two-gpt2", backend.NamePacket, synth("dctcp", 5, "gpt2", "gpt2")},
		{"fluid/srpt-three", backend.NameFluid, synth("srpt", 60, "gpt3", "gpt2", "gpt2")},
		{"fluid/pias-three", backend.NameFluid, synth("pias", 60, "gpt3", "gpt2", "gpt2")},
		// A dense fat-tree with the fabric benchmark's shape: ~10 flows
		// active per step over many link-connected components, the load
		// the max-min allocator's incidence index and per-component
		// filling are built for.
		{"fluid/cluster-fattree8-dense", backend.NameFluid, func(*testing.T) *config.Scenario {
			return experiments.ClusterScenario(experiments.ClusterOpts{
				Jobs:              48,
				ArrivalRatePerSec: 16,
				MeanIters:         8,
				DurationSec:       10,
				Seed:              7,
			})
		}},
		// The learned tier at full horizon: a dumbbell, a topology and
		// its demo scenario. Its traces hold only the manifest and
		// metrics, so the Result and manifest digests carry the point.
		{"learned/cluster-fattree", backend.NameLearned, fileScenario("cluster-fattree.json", 0)},
		{"learned/fourjobs", backend.NameLearned, fileScenario("fourjobs.json", 0)},
		{"learned/learned-demo", backend.NameLearned, fileScenario("learned-demo.json", 0)},
	}
}

func runHotpathPoint(t *testing.T, pt hotpathPoint) (hotpathDigest, []byte) {
	t.Helper()
	b, err := backend.New(pt.backendName)
	if err != nil {
		t.Fatal(err)
	}
	scn := pt.load(t)
	rec, buf, reg := telemetry.NewBuffered(telemetry.Options{})
	res, err := b.Run(telemetry.WithRecorder(context.Background(), rec), scn, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The manifest is hashed apart from the stream, with the build
	// revision cleared: the revision legitimately changes between
	// commits. Events and the metrics registry are the simulation's
	// observable behaviour.
	var trace bytes.Buffer
	if err := telemetry.Write(&trace, nil, buf.Events(), reg); err != nil {
		t.Fatal(err)
	}
	if rec.Manifest() == nil {
		t.Fatal("traced run set no manifest")
	}
	man := *rec.Manifest()
	man.Revision = ""
	manJSON, err := json.Marshal(&man)
	if err != nil {
		t.Fatal(err)
	}
	tsum := sha256.Sum256(trace.Bytes())
	msum := sha256.Sum256(manJSON)
	return hotpathDigest{
		Trace:    hex.EncodeToString(tsum[:]),
		Result:   valueDigest(t, res),
		Manifest: hex.EncodeToString(msum[:]),
	}, trace.Bytes()
}

// valueDigest hashes v's values and nothing of its type's names or tags:
// struct fields in declaration order, pointers followed (a nil pointer
// and an empty slice are marked apart from zero values), lengths ahead
// of slice and string contents, floats by their bits. Renaming or
// tagging a field leaves the digest alone; changing, adding, removing
// or reordering a value moves it.
func valueDigest(t *testing.T, v any) string {
	t.Helper()
	h := sha256.New()
	var word [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(word[:], u)
		h.Write(word[:])
	}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				put(0)
				return
			}
			put(1)
			walk(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice:
			if v.IsNil() {
				put(0)
				return
			}
			put(1)
			fallthrough
		case reflect.Array:
			put(uint64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.String:
			put(uint64(v.Len()))
			h.Write([]byte(v.String()))
		case reflect.Bool:
			if v.Bool() {
				put(1)
			} else {
				put(0)
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			put(uint64(v.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			put(v.Uint())
		case reflect.Float32, reflect.Float64:
			put(math.Float64bits(v.Float()))
		default:
			t.Fatalf("valueDigest: unsupported kind %s", v.Kind())
		}
	}
	walk(reflect.ValueOf(v))
	return hex.EncodeToString(h.Sum(nil))
}

// diagnoseHotpathDivergence narrows a golden-digest mismatch down to an
// event, using the trace differ. The golden file pins only hashes, so the
// pre-refactor events are gone — but rerunning the point in the current
// tree separates the two possible causes: if the rerun diverges from the
// first run, the tree is nondeterministic and the report pinpoints the
// first event that differs between the two same-seed runs; if the rerun
// is byte-identical, behaviour changed deterministically relative to the
// golden tree. Either way the report is logged, and also written to
// $MLTCP_DIAG_DIR/<point>.txt when that variable is set (CI uploads the
// directory as a failure artifact).
func diagnoseHotpathDivergence(t *testing.T, pt hotpathPoint, firstTrace []byte) {
	t.Helper()
	_, rerun := runHotpathPoint(t, pt)

	var report strings.Builder
	fmt.Fprintf(&report, "hotpath golden divergence: point %s\n", pt.name)
	if bytes.Equal(firstTrace, rerun) {
		report.WriteString(
			"rerun reproduces the new trace byte-for-byte: the current tree is\n" +
				"deterministic, but its behaviour differs from the golden tree.\n" +
				"If the change is intentional, re-bless with -update-hotpath;\n" +
				"diff against a pre-change trace with mltcp-diff to localize it.\n")
	} else {
		a, errA := telemetry.Read(bytes.NewReader(firstTrace))
		b, errB := telemetry.Read(bytes.NewReader(rerun))
		if errA != nil || errB != nil {
			t.Logf("cannot decode traces for diffing: %v / %v", errA, errB)
			return
		}
		report.WriteString(
			"two same-seed runs of the current tree produced different traces:\n" +
				"the tree is NONDETERMINISTIC. First divergence between runs:\n\n")
		d := diagnose.Compare(a, b, diagnose.Options{})
		if err := d.WriteText(&report, "run1", "run2"); err != nil {
			t.Fatal(err)
		}
	}
	t.Log(report.String())

	if dir := os.Getenv("MLTCP_DIAG_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("MLTCP_DIAG_DIR: %v", err)
			return
		}
		name := strings.ReplaceAll(pt.name, "/", "_") + ".txt"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(report.String()), 0o644); err != nil {
			t.Logf("MLTCP_DIAG_DIR: %v", err)
		}
	}
}

// TestHotPathGoldenTraces is the correctness contract for the hot-path
// overhaul (event heap, pooled events and packets, SoA fluid state):
// every checked-in scenario must produce a byte-identical telemetry trace,
// a DeepEqual Result (compared through valueDigest) and the same trace
// manifest before and after the refactor. The golden digests were captured from
// the pre-refactor tree; re-blessing them with -update-hotpath is only
// legitimate for changes that intentionally alter simulation behaviour,
// never for performance work. On a digest mismatch the point is rerun and
// the two traces fed through internal/diagnose, so the failure names the
// first divergent event instead of two opaque hashes.
func TestHotPathGoldenTraces(t *testing.T) {
	goldenPath := filepath.FromSlash("testdata/hotpath_golden.json")
	golden := map[string]hotpathDigest{}
	if !*updateHotpathGolden {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("missing golden file (generate once with -update-hotpath): %v", err)
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatal(err)
		}
	}

	got := map[string]hotpathDigest{}
	for _, pt := range hotpathPoints() {
		pt := pt
		t.Run(pt.name, func(t *testing.T) {
			d, traceBytes := runHotpathPoint(t, pt)
			got[pt.name] = d
			if *updateHotpathGolden {
				return
			}
			want, ok := golden[pt.name]
			if !ok {
				t.Fatalf("point %s has no golden digest; regenerate with -update-hotpath", pt.name)
			}
			if d.Trace != want.Trace {
				t.Errorf("telemetry trace diverged from the pre-refactor golden\n got  %s\n want %s", d.Trace, want.Trace)
			}
			if d.Result != want.Result {
				t.Errorf("Result diverged from the pre-refactor golden\n got  %s\n want %s", d.Result, want.Result)
			}
			if d.Manifest != want.Manifest {
				t.Errorf("trace manifest diverged from the pre-refactor golden\n got  %s\n want %s", d.Manifest, want.Manifest)
			}
			if t.Failed() {
				diagnoseHotpathDivergence(t, pt, traceBytes)
			}
		})
	}

	if *updateHotpathGolden {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		ordered := make(map[string]hotpathDigest, len(got))
		for _, n := range names {
			ordered[n] = got[n]
		}
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d points)", goldenPath, len(got))
	}
}

// TestLimiterDropCounts pins how many high-rate emissions the sampling
// limiter suppresses and how many events a traced run buffers, on one
// fluid and one packet point. TestHotPathGoldenTraces hashes the stream
// without FlushLimiterStats, so it cannot see a change that computes or
// drops a different number of samples while keeping the survivors; the
// counts were recorded before the limiter check moved ahead of the
// payload computation and must not move with it.
func TestLimiterDropCounts(t *testing.T) {
	want := map[string]struct{ dropped, buffered int64 }{
		"fluid/fourjobs":  {84901, 4427},
		"packet/fourjobs": {213654, 3835},
	}
	found := 0
	for _, pt := range hotpathPoints() {
		w, ok := want[pt.name]
		if !ok {
			continue
		}
		found++
		t.Run(pt.name, func(t *testing.T) {
			b, err := backend.New(pt.backendName)
			if err != nil {
				t.Fatal(err)
			}
			rec, buf, _ := telemetry.NewBuffered(telemetry.Options{})
			if _, err := b.Run(telemetry.WithRecorder(context.Background(), rec), pt.load(t), 1); err != nil {
				t.Fatal(err)
			}
			if got := rec.DroppedByLimiter(); got != w.dropped {
				t.Errorf("DroppedByLimiter = %d, want %d", got, w.dropped)
			}
			if got := int64(buf.Len()); got != w.buffered {
				t.Errorf("buffered %d events, want %d", got, w.buffered)
			}
		})
	}
	if found != len(want) {
		t.Fatalf("found %d of the %d pinned points among hotpathPoints", found, len(want))
	}
}
