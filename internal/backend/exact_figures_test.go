package backend_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mltcp/internal/backend"
	"mltcp/internal/obs"
	"mltcp/internal/telemetry"
)

var updateFigures = flag.Bool("update-figures", false,
	"re-record testdata/exact_figures.json and the README performance block")

const (
	figuresPath = "testdata/exact_figures.json"
	readmePath  = "../../README.md"
	readmeBegin = "<!-- exact-figures:begin -->"
	readmeEnd   = "<!-- exact-figures:end -->"
)

// exactFigures are one point's machine-independent cost figures. Events,
// heap depth and interleaved_at are deterministic functions of
// (scenario, seed); allocs/op repeats to within a couple of objects (see
// allocsWithin).
type exactFigures struct {
	Point         string `json:"point"`
	Events        uint64 `json:"events"`
	MaxHeapDepth  int    `json:"max_heap_depth"`
	AllocsPerOp   uint64 `json:"allocs_per_op"`
	InterleavedAt int    `json:"interleaved_at"`
}

// exactFigurePoints is the golden-trace scenario list's exact-tier points
// plus every fluid point answered by the learned tier, named
// learned/<scenario>.
func exactFigurePoints() []hotpathPoint {
	var pts []hotpathPoint
	for _, pt := range hotpathPoints() {
		if pt.backendName != backend.NameLearned {
			pts = append(pts, pt)
		}
	}
	for _, pt := range hotpathPoints() {
		if pt.backendName == backend.NameFluid {
			pts = append(pts, hotpathPoint{
				name:        "learned/" + strings.TrimPrefix(pt.name, "fluid/"),
				backendName: backend.NameLearned,
				load:        pt.load,
			})
		}
	}
	return pts
}

// measureFigures runs one point traced and under an obs collector for
// its work counts and convergence iteration, then counts its heap
// allocations per untraced run. On an exact tier the Result's
// InterleavedAt must also be what the run's own trace rebuilds.
func measureFigures(t *testing.T, pt hotpathPoint) exactFigures {
	t.Helper()
	b, err := backend.New(pt.backendName)
	if err != nil {
		t.Fatal(err)
	}
	scn := pt.load(t)
	col := obs.NewCollector()
	rec, buf, _ := telemetry.NewBuffered(telemetry.Options{})
	ctx := obs.WithCollector(telemetry.WithRecorder(context.Background(), rec), col)
	res, err := b.Run(ctx, scn, 1)
	if err != nil {
		t.Fatal(err)
	}
	runs := col.Runs()
	if len(runs) != 1 {
		t.Fatalf("%s: collector recorded %d runs, want 1", pt.name, len(runs))
	}
	if pt.backendName != backend.NameLearned {
		rebuilt, err := backend.ResultFromTrace(rec.Manifest(), buf.Events())
		if err != nil {
			t.Fatal(err)
		}
		if rebuilt.InterleavedAt != res.InterleavedAt {
			t.Errorf("%s: Result.InterleavedAt %d, rebuilt from the run's trace %d",
				pt.name, res.InterleavedAt, rebuilt.InterleavedAt)
		}
	}
	f := exactFigures{
		Point:         pt.name,
		Events:        runs[0].Events,
		MaxHeapDepth:  runs[0].MaxHeapDepth,
		InterleavedAt: res.InterleavedAt,
	}
	if !raceEnabled {
		// AllocsPerRun runs once to warm up, then counts process-wide
		// mallocs over the measured run; no test in this package runs in
		// parallel with a top-level sequential test, so nothing else
		// allocates meanwhile.
		f.AllocsPerOp = uint64(testing.AllocsPerRun(1, func() {
			if _, err := b.Run(context.Background(), scn, 1); err != nil {
				t.Fatal(err)
			}
		}))
	}
	return f
}

// allocsWithin is the allocs/op bound: max(4, 0.5%) of the golden count.
// Repeated runs of one binary read the same count on every point but
// two, which alternate by 2 objects; an allocation added per fluid step
// or per packet moves the count by hundreds or more.
func allocsWithin(got, want uint64) bool {
	tol := want / 200
	if tol < 4 {
		tol = 4
	}
	if got > want {
		return got-want <= tol
	}
	return want-got <= tol
}

// keepAllocs is the allocs/op a re-record writes for a point: its
// recorded count while allocsWithin still accepts the measurement, so the
// alternation of an unchanged point does not churn the golden file, and
// the measured count once it moves out of bound.
func keepAllocs(got, recorded uint64) uint64 {
	if allocsWithin(got, recorded) {
		return recorded
	}
	return got
}

// TestExactFigures pins every golden scenario's cost figures — events,
// max event-heap depth, allocs/op and interleaved_at — against
// testdata/exact_figures.json. These are the performance numbers that
// do not drift with the machine; time is measured only by perfbench
// (reference units, alternating pairs). A deliberate change that moves
// them re-records the file and the README block with -update-figures
// (without -race, which shifts allocation counts) and says why; it keeps
// each recorded allocs/op that is still within bound (keepAllocs).
func TestExactFigures(t *testing.T) {
	if *updateFigures && raceEnabled {
		t.Fatal("-update-figures needs a build without -race: allocs/op are not measured under the race detector")
	}
	want := map[string]exactFigures{}
	for _, f := range readFigures(t) {
		want[f.Point] = f
	}
	pts := exactFigurePoints()
	var got []exactFigures
	for _, pt := range pts {
		t.Run(pt.name, func(t *testing.T) {
			f := measureFigures(t, pt)
			w, ok := want[pt.name]
			if *updateFigures {
				if ok {
					f.AllocsPerOp = keepAllocs(f.AllocsPerOp, w.AllocsPerOp)
				}
				got = append(got, f)
				return
			}
			if !ok {
				t.Fatalf("%s has no recorded figures; re-record with -update-figures", pt.name)
			}
			if f.Events != w.Events || f.MaxHeapDepth != w.MaxHeapDepth || f.InterleavedAt != w.InterleavedAt {
				t.Errorf("%s: events %d, heap depth %d, interleaved_at %d; recorded %d, %d, %d",
					pt.name, f.Events, f.MaxHeapDepth, f.InterleavedAt, w.Events, w.MaxHeapDepth, w.InterleavedAt)
			}
			if !raceEnabled && !allocsWithin(f.AllocsPerOp, w.AllocsPerOp) {
				t.Errorf("%s: %d allocs/op, recorded %d (bound max(4, 0.5%%))", pt.name, f.AllocsPerOp, w.AllocsPerOp)
			}
		})
	}
	if !*updateFigures {
		if len(want) != len(pts) {
			t.Errorf("%s records %d points, the suite has %d; re-record with -update-figures",
				figuresPath, len(want), len(pts))
		}
		return
	}
	if t.Failed() {
		return
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.FromSlash(figuresPath), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile(filepath.FromSlash(readmePath))
	if err != nil {
		t.Fatal(err)
	}
	before, _, after, err := splitReadme(readme)
	if err != nil {
		t.Fatal(err)
	}
	out := before + renderFigures(got) + after
	if err := os.WriteFile(filepath.FromSlash(readmePath), []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d points) and the README block", figuresPath, len(got))
}

// TestKeepAllocs pins the re-record rule: a measurement that allocsWithin
// accepts keeps the recorded count, and one out of bound replaces it.
func TestKeepAllocs(t *testing.T) {
	for _, c := range []struct{ got, recorded, want uint64 }{
		{708, 708, 708},
		{710, 708, 708}, // the alternation of an unchanged point
		{706, 708, 708},
		{712, 708, 708}, // at the floor of 4
		{713, 708, 713},
		{703, 708, 703},
		{20100, 20000, 20000}, // at 0.5%
		{20101, 20000, 20101},
		{19899, 20000, 19899},
	} {
		if got := keepAllocs(c.got, c.recorded); got != c.want {
			t.Errorf("keepAllocs(%d, recorded %d) = %d, want %d", c.got, c.recorded, got, c.want)
		}
	}
}

// TestReadmeExactFigures fails when the README performance block is not
// the rendering of testdata/exact_figures.json.
func TestReadmeExactFigures(t *testing.T) {
	readme, err := os.ReadFile(filepath.FromSlash(readmePath))
	if err != nil {
		t.Fatal(err)
	}
	_, block, _, err := splitReadme(readme)
	if err != nil {
		t.Fatal(err)
	}
	if want := renderFigures(readFigures(t)); block != want {
		t.Errorf("README block differs from %s; re-record with -update-figures.\ngot:\n%s\nwant:\n%s",
			figuresPath, block, want)
	}
}

// readFigures reads the golden file; a first -update-figures recording
// starts from none.
func readFigures(t *testing.T) []exactFigures {
	t.Helper()
	data, err := os.ReadFile(filepath.FromSlash(figuresPath))
	if os.IsNotExist(err) && *updateFigures {
		return nil
	}
	if err != nil {
		t.Fatalf("%v (record once with -update-figures)", err)
	}
	var fs []exactFigures
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&fs); err != nil {
		t.Fatalf("%s: %v", figuresPath, err)
	}
	return fs
}

// splitReadme cuts the README around its generated block: the text up
// to and including the begin marker's line, the block, and the text
// from the end marker on.
func splitReadme(readme []byte) (before, block, after string, err error) {
	s := string(readme)
	i := strings.Index(s, readmeBegin+"\n")
	j := strings.Index(s, readmeEnd)
	if i < 0 || j < i {
		return "", "", "", fmt.Errorf("%s: markers %q / %q not found in order", readmePath, readmeBegin, readmeEnd)
	}
	i += len(readmeBegin) + 1
	return s[:i], s[i:j], s[j:], nil
}

// renderFigures is the README table: one row per point, in suite order.
func renderFigures(fs []exactFigures) string {
	var sb strings.Builder
	sb.WriteString("| point | events | heap depth | allocs/op | interleaved_at |\n")
	sb.WriteString("|---|---:|---:|---:|---:|\n")
	for _, f := range fs {
		at := "never"
		if f.InterleavedAt >= 0 {
			at = fmt.Sprint(f.InterleavedAt)
		}
		fmt.Fprintf(&sb, "| %s | %d | %d | %d | %s |\n", f.Point, f.Events, f.MaxHeapDepth, f.AllocsPerOp, at)
	}
	return sb.String()
}
