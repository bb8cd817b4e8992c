package lint_test

import (
	"os"
	"testing"

	"mltcp/internal/lint"
	"mltcp/internal/lint/linttest"
)

// The fixture tests run each analyzer through the full pipeline —
// type-checking against real export data, AppliesTo scoping under an
// impersonated package path, //lint:allow suppression — and require the
// diagnostics to match the fixtures' `// want` expectations exactly.
// Each fixture contains at least one violation, so these tests fail if
// an analyzer stops firing.

func TestSimDeterminismFixture(t *testing.T) {
	linttest.Run(t, lint.SimDeterminism, "mltcp/internal/tcp",
		"testdata/simdeterminism/fixture.go")
}

func TestSimUnitsFixture(t *testing.T) {
	linttest.Run(t, lint.SimUnits, "mltcp/internal/fixture",
		"testdata/simunits/fixture.go")
}

func TestTelemetryEmitGuardFixture(t *testing.T) {
	linttest.Run(t, lint.TelemetryEmit, "mltcp/internal/telemetry",
		"testdata/telemetryemit/guard.go")
}

func TestTelemetryEmitCallSiteFixture(t *testing.T) {
	linttest.Run(t, lint.TelemetryEmit, "mltcp/internal/fixture",
		"testdata/telemetryemit/emit.go")
}

func TestRegistryNameFixture(t *testing.T) {
	linttest.Run(t, lint.RegistryName, "mltcp/cmd/fixture",
		"testdata/registryname/fixture.go")
}

// The interprocedural fixtures are multi-package: earlier fixture
// packages are summarized into the shared fact store and imported by the
// later ones, so every finding below a package boundary is reached
// through facts alone.

func TestSeedFlowFixture(t *testing.T) {
	linttest.RunPkgs(t, lint.SeedFlow,
		linttest.PkgFixture{Path: "mltcp/internal/sim", Files: []string{"testdata/seedflow/sim.go"}},
		linttest.PkgFixture{Path: "mltcp/internal/lint/seedlib", Files: []string{"testdata/seedflow/seedlib.go"}},
		linttest.PkgFixture{Path: "mltcp/internal/user", Files: []string{"testdata/seedflow/user.go"}},
	)
}

func TestHotCallFixture(t *testing.T) {
	linttest.RunPkgs(t, lint.HotCall,
		linttest.PkgFixture{Path: "mltcp/internal/lint/helper", Files: []string{"testdata/hotcall/helper.go"}},
		linttest.PkgFixture{Path: "mltcp/internal/sim", Files: []string{"testdata/hotcall/fixture.go", "testdata/hotcall/gofmt.go"}},
	)
}

// TestHotAllocFixture pins hotcall's per-call allocation findings on the
// leaf fixture that the retired hotalloc analyzer was written against:
// every shape it reported is still reported, with the same message.
func TestHotAllocFixture(t *testing.T) {
	linttest.Run(t, lint.HotCall, "mltcp/internal/sim",
		"testdata/hotcall/leaf.go")
}

func TestConcGuardFixture(t *testing.T) {
	linttest.Run(t, lint.ConcGuard, "mltcp/internal/fixture",
		"testdata/concguard/fixture.go")
}

// TestClockFactFixture exercises simdeterminism's interprocedural half:
// the consumer package never imports time, so its finding can only come
// from the FactUsesWallClock record the helper package published.
func TestClockFactFixture(t *testing.T) {
	linttest.RunPkgs(t, lint.SimDeterminism,
		linttest.PkgFixture{Path: "mltcp/internal/lint/clockdep", Files: []string{"testdata/clockfact/clockdep.go"}},
		linttest.PkgFixture{Path: "mltcp/internal/lint/consumer", Files: []string{"testdata/clockfact/consumer.go"}},
	)
}

// TestScoping pins each analyzer's package-path scope: simulation rules
// stay out of cmd/*, the conversion-defining packages stay exempt, and
// registry-name checks never fire inside internal/*.
func TestScoping(t *testing.T) {
	cases := []struct {
		a    *lint.Analyzer
		path string
		want bool
	}{
		{lint.SimDeterminism, "mltcp/internal/tcp", true},
		{lint.SimDeterminism, "mltcp/cmd/mltcpsim", false},
		{lint.SimUnits, "mltcp/internal/fluid", true},
		{lint.SimUnits, "mltcp/cmd/mltcpsim", true},
		{lint.SimUnits, "mltcp/internal/sim", false},
		{lint.SimUnits, "mltcp/internal/units", false},
		{lint.TelemetryEmit, "mltcp/internal/backend", true},
		{lint.RegistryName, "mltcp/cmd/mltcp-trace", true},
		{lint.RegistryName, "mltcp/internal/backend", false},
		{lint.HotCall, "mltcp/internal/sim", true},
		{lint.HotCall, "mltcp/internal/netsim", true},
		{lint.HotCall, "mltcp/internal/tcp", false},
		{lint.HotCall, "mltcp/internal/backend", false},
	}
	for _, c := range cases {
		if got := c.a.AppliesTo(c.path); got != c.want {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", c.a.Name, c.path, got, c.want)
		}
	}
	// seedflow and concguard guard whole-repo invariants (seed hygiene,
	// goroutine joining), so they scope to every package.
	for _, a := range []*lint.Analyzer{lint.SeedFlow, lint.ConcGuard} {
		if a.AppliesTo != nil {
			t.Errorf("%s.AppliesTo should be nil (every package)", a.Name)
		}
	}
}

// TestRepositoryClean is the integration gate: the full suite over the
// entire module must report zero unsuppressed diagnostics. Inserting a
// time.Now() into internal/tcp (or any other violation) fails this test
// before it fails CI.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	diags, err := lint.Run("", []string{"mltcp/..."}, lint.Analyzers())
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unsuppressed finding: %s", d)
	}
}

// TestStandaloneRunScoped runs the driver over one small
// clean package as a smoke test of the go list + export-data loader.
func TestStandaloneRunScoped(t *testing.T) {
	diags, err := lint.Run("", []string{"mltcp/internal/units"}, lint.Analyzers())
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	if len(diags) != 0 {
		t.Errorf("internal/units should be clean, got %v", diags)
	}
}

// TestMain keeps fixture paths stable regardless of where the test
// binary runs from.
func TestMain(m *testing.M) {
	if _, err := os.Stat("testdata"); err != nil {
		panic("lint tests must run from the internal/lint package directory")
	}
	os.Exit(m.Run())
}
