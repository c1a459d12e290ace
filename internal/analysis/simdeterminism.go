package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SimDeterminism forbids sources of nondeterminism inside the simulation
// packages. The discrete-event engine must be bit-for-bit reproducible —
// the paper's figures are regenerated from it — so model code must use the
// virtual sim.Time clock instead of the wall clock, an explicitly seeded
// rand.New(rand.NewSource(seed)) instead of math/rand's global source, and
// must not depend on Go's randomized map iteration order.
// SimDeterminism applies to _test.go files too (Tests): a test that seeds
// from the wall clock or the global source can mask a determinism regression
// by never reproducing it. The map-iteration check is waived in test files —
// tests routinely range over expectation maps where order cannot leak into
// simulated results.
var SimDeterminism = &Analyzer{
	Name: "simdeterminism",
	Doc: "forbid wall-clock time, the global math/rand source, and map " +
		"iteration order dependence in simulation packages",
	Tests: true,
	Run:   runSimDeterminism,
}

// simScopes are the packages whose behavior feeds simulated results.
var simScopes = []string{
	"dagger/internal/sim",
	"dagger/internal/dataplane",
	"dagger/internal/connstate",
	"dagger/internal/interconnect",
	"dagger/internal/nicmodel",
	"dagger/internal/netmodel",
	"dagger/internal/microsim",
	"dagger/internal/experiments",
	"dagger/internal/metrics",
	"dagger/internal/faults",
}

// wallClockFuncs are the time package functions that read or depend on the
// wall clock (or the process scheduler) and therefore leak real time into
// simulated results.
var wallClockFuncs = []string{
	"Now", "Since", "Until", "After", "Tick", "Sleep",
	"NewTimer", "NewTicker", "AfterFunc",
}

// globalRandOK are math/rand package functions that are allowed because
// they construct explicitly seeded generators rather than drawing from the
// global source.
var globalRandOK = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func runSimDeterminism(pass *Pass) error {
	if !pathIn(pass.Path, simScopes...) {
		return nil
	}
	for _, f := range pass.Files {
		isTestFile := strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if name, ok := isPkgCall(pass.Info, n, "time", wallClockFuncs...); ok {
					pass.Reportf(n.Pos(),
						"time.%s reads the wall clock in simulation code; use the virtual sim.Time clock", name)
				}
				if fn := calleeFunc(pass.Info, n); fn != nil &&
					fn.Pkg() != nil && fn.Pkg().Path() == "math/rand" &&
					fn.Type().(*types.Signature).Recv() == nil &&
					!globalRandOK[fn.Name()] {
					pass.Reportf(n.Pos(),
						"rand.%s draws from the global math/rand source in simulation code; use a seeded rand.New(rand.NewSource(seed))", fn.Name())
				}
			case *ast.RangeStmt:
				if isTestFile {
					// Map order in a test cannot leak into simulated results;
					// only the wall-clock and global-rand checks apply here.
					return true
				}
				t := pass.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap && !orderInvariantRange(pass, n) {
					pass.Reportf(n.Pos(),
						"map iteration order is randomized; sort the keys first or mark the loop // dagger:ignore simdeterminism <reason> if provably order-invariant")
				}
			}
			return true
		})
	}
	return nil
}

// orderInvariantRange reports whether a map range is trivially independent
// of iteration order: a keys/values-collection loop whose body is a single
// append onto one slice (the caller is expected to sort afterwards), a pure
// counting loop, or an integer accumulation (+=, |=, &=, ^=; commutative
// and associative — unlike float accumulation, whose rounding makes the sum
// order-dependent).
func orderInvariantRange(pass *Pass, n *ast.RangeStmt) bool {
	if len(n.Body.List) != 1 {
		return false
	}
	switch st := n.Body.List[0].(type) {
	case *ast.AssignStmt:
		// keys = append(keys, k)
		if len(st.Rhs) == 1 {
			if call, ok := st.Rhs[0].(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
					return true
				}
			}
		}
		// sum += v over integers.
		switch st.Tok {
		case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			if len(st.Lhs) == 1 {
				if t := pass.TypeOf(st.Lhs[0]); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
						return true
					}
				}
			}
		}
	case *ast.IncDecStmt:
		return true
	}
	return false
}
