package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestSimDeterminismFixture(t *testing.T) {
	RunFixture(t, SimDeterminism, filepath.Join("testdata", "simdeterminism"), "dagger/internal/sim/fixture")
}

// TestSimDeterminismTestFileFixture proves the loader reaches in-package
// _test.go files and that simdeterminism polices them: unseeded rand and
// wall-clock reads are flagged, while seeded tests and test-file map ranges
// pass.
func TestSimDeterminismTestFileFixture(t *testing.T) {
	RunFixture(t, SimDeterminism,
		filepath.Join("testdata", "simdeterminism", "tests"), "dagger/internal/sim/fixture/tests")
}

// TestSimDeterminismXTestFixture proves external test packages (package
// foo_test) are loaded under the synthetic /xtest path and analyzed in scope.
func TestSimDeterminismXTestFixture(t *testing.T) {
	RunXTestFixture(t, SimDeterminism,
		filepath.Join("testdata", "simdeterminism", "tests"), "dagger/internal/sim/fixture/tests")
}

// TestTestFileDiagnosticsFilteredWithoutOptIn proves analyzers that do not
// opt into test files produce no diagnostics there even when scoped in: the
// same unseeded fixture attributed to a lock-safety-scoped path must stay
// silent under a Tests=false analyzer.
func TestTestFileDiagnosticsFilteredWithoutOptIn(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(filepath.Join("testdata", "simdeterminism", "tests"), "dagger/internal/sim/fixture/tests")
	if err != nil {
		t.Fatal(err)
	}
	noTests := &Analyzer{
		Name: "wantless",
		Run: func(p *Pass) error {
			for _, f := range p.Files {
				p.Reportf(f.Pos(), "flag every file")
			}
			return nil
		},
	}
	diags, err := Run(pkg, []*Analyzer{noTests})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.HasSuffix(diags[0].Pos.Filename, "fixture.go") {
		t.Fatalf("Tests=false analyzer should only report in non-test files, got %v", diags)
	}
}

// TestConnstateSimFixture pins simdeterminism coverage of the shared
// connection-state policy layer: wall-clock eviction stamps, global-rand
// victim selection, and order-sensitive backing-store walks are flagged
// when attributed to dagger/internal/connstate.
func TestConnstateSimFixture(t *testing.T) {
	RunFixture(t, SimDeterminism,
		filepath.Join("testdata", "connstate", "sim"), "dagger/internal/connstate/fixture")
}

// TestConnstateAllocFixture pins hotpathalloc coverage of the same layer:
// per-lookup formatting, constant fmt.Errorf, []byte→string conversions,
// and un-preallocated append loops are flagged there.
func TestConnstateAllocFixture(t *testing.T) {
	RunFixture(t, HotPathAlloc,
		filepath.Join("testdata", "connstate", "alloc"), "dagger/internal/connstate/fixture")
}

// TestMetricsSimFixture pins simdeterminism coverage of the metrics plane:
// wall-clock snapshot stamps and order-sensitive registry walks are flagged
// when attributed to dagger/internal/metrics, keeping cross-substrate
// snapshot diffs reproducible.
func TestMetricsSimFixture(t *testing.T) {
	RunFixture(t, SimDeterminism,
		filepath.Join("testdata", "metrics", "sim"), "dagger/internal/metrics/fixture")
}

// TestMetricsAllocFixture pins hotpathalloc coverage of the metrics plane:
// per-event name formatting, []byte→string conversions, and un-preallocated
// snapshot appends are flagged there.
func TestMetricsAllocFixture(t *testing.T) {
	RunFixture(t, HotPathAlloc,
		filepath.Join("testdata", "metrics", "alloc"), "dagger/internal/metrics/fixture")
}

// TestFaultsSimFixture pins simdeterminism coverage of the fault-injection
// policy layer: wall-clock seeds, global-rand verdict draws, and
// order-sensitive held-frame walks are flagged when attributed to
// dagger/internal/faults, keeping fault plans replayable.
func TestFaultsSimFixture(t *testing.T) {
	RunFixture(t, SimDeterminism,
		filepath.Join("testdata", "faults", "sim"), "dagger/internal/faults/fixture")
}

// TestFaultsAllocFixture pins hotpathalloc coverage of the same layer:
// per-verdict formatting, constant fmt.Errorf, []byte→string conversions,
// and un-preallocated append loops are flagged there.
func TestFaultsAllocFixture(t *testing.T) {
	RunFixture(t, HotPathAlloc,
		filepath.Join("testdata", "faults", "alloc"), "dagger/internal/faults/fixture")
}

func TestLockSafetyFixture(t *testing.T) {
	RunFixture(t, LockSafety, filepath.Join("testdata", "locksafety"), "dagger/internal/core/fixture")
}

func TestHotPathAllocFixture(t *testing.T) {
	RunFixture(t, HotPathAlloc, filepath.Join("testdata", "hotpathalloc"), "dagger/internal/wire/fixture")
}

func TestErrCheckLiteFixture(t *testing.T) {
	RunFixture(t, ErrCheckLite, filepath.Join("testdata", "errchecklite"), "dagger/internal/transport/fixture")
}

func TestBufOwnershipFixture(t *testing.T) {
	RunFixture(t, BufOwnership, filepath.Join("testdata", "bufownership"), "dagger/internal/core/fixture")
}

func TestBudgetFlowFixture(t *testing.T) {
	RunFixture(t, BudgetFlow, filepath.Join("testdata", "budgetflow"), "dagger/internal/core/fixture")
}

// TestIgnoreFixture pins the // dagger:ignore contract: suppression on the
// directive's own line and the line below, mandatory reasons, and stale or
// malformed directives surfacing as diagnostics of their own.
func TestIgnoreFixture(t *testing.T) {
	RunFixture(t, ErrCheckLite, filepath.Join("testdata", "ignore"), "dagger/internal/core/fixture")
}

// TestAnalyzersScopedOut proves the analyzers stay silent on packages
// outside their scope: the same violation-riddled fixtures produce no
// diagnostics when attributed to an unscoped import path.
func TestAnalyzersScopedOut(t *testing.T) {
	cases := []struct {
		a   *Analyzer
		dir string
	}{
		{SimDeterminism, "simdeterminism"},
		{SimDeterminism, filepath.Join("connstate", "sim")},
		{HotPathAlloc, filepath.Join("connstate", "alloc")},
		{SimDeterminism, filepath.Join("faults", "sim")},
		{HotPathAlloc, filepath.Join("faults", "alloc")},
		{LockSafety, "locksafety"},
		{HotPathAlloc, "hotpathalloc"},
		{ErrCheckLite, "errchecklite"},
		{BufOwnership, "bufownership"},
		{BudgetFlow, "budgetflow"},
	}
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		pkg, err := loader.Load(filepath.Join("testdata", tc.dir), "dagger/internal/unscoped/fixture")
		if err != nil {
			t.Fatalf("%s: %v", tc.dir, err)
		}
		diags, err := Run(pkg, []*Analyzer{tc.a})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			// A fixture's // dagger:ignore has nothing left to suppress once
			// its analyzer is scoped out; that staleness report is the
			// correct consequence, not an analyzer firing out of scope.
			if strings.HasPrefix(d.Message, "unused dagger:ignore suppression") {
				continue
			}
			t.Errorf("%s: diagnostic outside scope: %s", tc.a.Name, d)
		}
	}
}

// TestLoaderRealPackages exercises the source loader on representative
// repo packages, including one that imports net (forcing a pure-Go
// standard-library type-check from GOROOT source).
func TestLoaderRealPackages(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	if loader.modulePath != "dagger" {
		t.Fatalf("module path = %q, want dagger", loader.modulePath)
	}
	for _, dir := range []string{"../sim", "../transport", "../ringbuf"} {
		pkg, err := loader.Load(dir, "")
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		if len(pkg.Files) == 0 {
			t.Fatalf("load %s: no files", dir)
		}
		if pkg.Types == nil || !pkg.Types.Complete() {
			t.Fatalf("load %s: incomplete type information", dir)
		}
	}
}

// TestRepoClean runs every analyzer over the live packages they scope to;
// the repo must stay violation-free, which is the same gate cmd/daggervet
// enforces in CI.
func TestRepoClean(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{
		"../sim", "../dataplane", "../connstate", "../interconnect", "../nicmodel",
		"../netmodel", "../microsim", "../experiments",
		"../core", "../transport", "../fabric", "../ringbuf", "../wire",
		"../faults", "../flight", "../kvs/mica", "../kvs/memcached",
		"../../examples/quickstart", "../../examples/kvs",
		"../../examples/flight", "../../examples/multitenant",
	}
	for _, dir := range dirs {
		pkgs := []*Package{}
		pkg, err := loader.Load(dir, "")
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
		// External test packages (package foo_test) are part of the analyzed
		// surface too.
		if xpkg, err := loader.LoadXTest(dir, ""); err != nil {
			t.Fatalf("load xtest %s: %v", dir, err)
		} else if xpkg != nil {
			pkgs = append(pkgs, xpkg)
		}
		for _, p := range pkgs {
			diags, err := Run(p, All)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diags {
				t.Errorf("%s", d)
			}
		}
	}
}
