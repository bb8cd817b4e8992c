package learn

import (
	"math"
	"testing"

	"mltcp/internal/config"
	"mltcp/internal/place"
)

// extractFor normalizes a scenario and runs the full serving-path
// extraction: Specs, placement compilation, Extract.
func extractFor(t *testing.T, scn *config.Scenario) *Features {
	t.Helper()
	if err := scn.Normalize(); err != nil {
		t.Fatal(err)
	}
	specs := scn.Specs()
	cl := place.Compile(scn, specs, 1)
	return Extract(scn, specs, cl)
}

// evalScenarios cover both extraction regimes: a dumbbell mix and a
// fat-tree topology scenario.
func evalScenarios() []*config.Scenario {
	return []*config.Scenario{
		{
			Name: "eval-dumbbell", Policy: "mltcp", DurationSec: 30,
			Jobs: []config.Job{
				{Name: "J1", Profile: "gpt2"},
				{Name: "J2", Profile: "gpt3"},
				{Name: "J3", Profile: "bert"},
			},
		},
		{
			Name: "eval-fattree", Policy: "reno", DurationSec: 20,
			Topology: &config.Topology{Kind: config.KindFatTree, K: 4},
			Jobs: []config.Job{
				{Name: "A", Profile: "gpt2", Count: 4},
				{Name: "B", Profile: "bert", Count: 2},
			},
		},
	}
}

// TestJobEvalMatchesDensePredict is the fast-path correctness guarantee:
// the layout-cached evaluation the learned backend serves must agree with the dense
// copy-base-hash-and-Predict path on every head and job, within float
// reassociation tolerance (the two paths sum in different orders, so
// bitwise equality is not the contract).
func TestJobEvalMatchesDensePredict(t *testing.T) {
	m, err := DefaultModel()
	if err != nil {
		t.Fatal(err)
	}
	h := m.Head(HeadSlowdown)
	if h == nil {
		t.Fatal("default model has no slowdown head")
	}
	const tol = 1e-9
	for _, scn := range evalScenarios() {
		f := extractFor(t, scn)
		base := make([]float64, Dim)
		HashInto(base, f.Scenario)
		ev := NewJobLayout(h, f.Jobs[0]).EvalHashed(base, NewHashedVector(f.Scenario))
		for i, jv := range f.Jobs {
			x := make([]float64, Dim)
			copy(x, base)
			HashInto(x, jv)
			dense := h.Predict(x)
			if fast := ev.Predict(jv); math.Abs(fast-dense) > tol {
				t.Errorf("%s job %d: fast %v dense %v (|Δ|=%g)",
					scn.Name, i, fast, dense, math.Abs(fast-dense))
			}
		}
	}
}

// TestJobEvalFallbackOnLayoutMismatch: a vector that does not match the
// prototype layout must degrade to the dense path, not mis-predict.
func TestJobEvalFallbackOnLayoutMismatch(t *testing.T) {
	m, err := DefaultModel()
	if err != nil {
		t.Fatal(err)
	}
	h := m.Head(HeadSlowdown)
	f := extractFor(t, evalScenarios()[0])
	base := make([]float64, Dim)
	HashInto(base, f.Scenario)
	ev := NewJobLayout(h, f.Jobs[0]).EvalHashed(base, NewHashedVector(f.Scenario))

	short := f.Jobs[1][:len(f.Jobs[1])-2] // drop trailing features: layout mismatch
	x := make([]float64, Dim)
	copy(x, base)
	HashInto(x, short)
	if got, want := ev.Predict(short), h.Predict(x); got != want {
		t.Fatalf("fallback predict %v, dense %v", got, want)
	}
}

// TestPredictSparseMatchesDense: the scenario-head serving path (Dot
// over the sparse hashed vector + stumps on the dense base) must agree
// with the dense Predict on the hashed image.
func TestPredictSparseMatchesDense(t *testing.T) {
	m, err := DefaultModel()
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-9
	for _, scn := range evalScenarios() {
		f := extractFor(t, scn)
		hv := NewHashedVector(f.Scenario)
		base := make([]float64, Dim)
		HashInto(base, f.Scenario)
		for i := range m.Heads {
			h := &m.Heads[i]
			dense := h.Predict(base)
			if hashed := h.PredictHashed(base, hv); math.Abs(hashed-dense) > tol {
				t.Errorf("%s head %s: hashed %v dense %v", scn.Name, h.Name, hashed, dense)
			}
		}
	}
}

// TestHashedVectorBitIdentical: AddTo keeps HashInto's exact
// operation order, so the hashed base the learned backend builds matches
// the name-hashing one bit for bit.
func TestHashedVectorBitIdentical(t *testing.T) {
	for _, scn := range evalScenarios() {
		f := extractFor(t, scn)
		base := make([]float64, Dim)
		HashInto(base, f.Scenario)
		viaHV := make([]float64, Dim)
		NewHashedVector(f.Scenario).AddTo(viaHV)
		for d := range base {
			if base[d] != viaHV[d] {
				t.Fatalf("%s: AddTo dim %d: %v != %v", scn.Name, d, viaHV[d], base[d])
			}
		}
	}
}

// TestDotVectorMatchesDenseDot pins the hashing linearity a Vector's
// hashed Dot relies on: colliding names sum the same way in both
// representations.
func TestDotVectorMatchesDenseDot(t *testing.T) {
	v := Vector{
		{"bias", 1}, {"njobs", 3}, {"j:a", 0.25}, {"p=mltcp:load", 1.5},
		{"bias", 2}, // duplicate name: accumulates
	}
	x := make([]float64, Dim)
	HashInto(x, v)
	w := make([]float64, Dim)
	for i := range w {
		w[i] = float64(i%13) * 0.1
	}
	var dense float64
	for i, wi := range w {
		dense += wi * x[i]
	}
	if got := NewHashedVector(v).Dot(w); math.Abs(got-dense) > 1e-12 {
		t.Fatalf("Dot %v, dense dot %v", got, dense)
	}
}
