package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"dagger/internal/analysis/flow"
)

// BudgetFlow enforces deadline-budget propagation (§5.5: the ctx deadline is
// the request's wire budget, and every tier below the entry point must see
// it). A function that receives a context must thread it to downstream RPC
// calls; minting a fresh context.Background()/TODO() below the entry tier
// silently discards the caller's remaining budget, so the server can no
// longer shed doomed work.
//
// The analysis is flow-sensitive over the internal/analysis/flow CFG: a
// budget-carrying context is "live" from the point it is created (named ctx
// parameter, context.WithTimeout/WithDeadline, or a derivation of either)
// to the point it is overwritten. Reports:
//
//   - a function with a named context parameter calls
//     context.Background()/context.TODO() (laundering: the caller's budget
//     exists but a fresh, unbounded context is used instead);
//   - context.Background()/TODO() passed directly as a call argument while
//     a budget context is live (except as the parent of a context.With*
//     derivation);
//   - calling a budget-less method M while a budget context is live when
//     the receiver also offers MContext (e.g. Call vs CallContext,
//     Get vs GetContext): the budget exists and a variant that carries it
//     exists, so dropping it is never necessary.
//
// Entry-tier functions — no context parameter, no live budget — may mint
// root contexts freely; that is where budgets are born.
var BudgetFlow = &Analyzer{
	Name:  "budgetflow",
	Doc:   "contexts carrying deadline budgets must propagate to downstream RPC calls",
	Tests: false,
	Run:   runBudgetFlow,
}

// budgetScopes is where budget propagation is enforced: the RPC core and
// everything built on top of it. The fabric/transport layers below the RPC
// boundary carry budgets as wire words, not contexts.
var budgetScopes = []string{
	"dagger/internal/core",
	"dagger/internal/social",
	"dagger/internal/flight",
	"dagger/internal/kvs",
	"dagger/internal/experiments",
	"dagger/examples",
}

// budgetFact maps context-typed variables that may carry a deadline budget
// at this program point to true. Join is set union ("may carry").
type budgetFact map[types.Object]bool

type budgetAnalysis struct {
	pass *Pass
	// fnName labels diagnostics with the enclosing function.
	fnName string
	// ctxParams are the function's own named context parameters: live
	// budgets at entry, since the caller's deadline arrives through them.
	ctxParams []types.Object
	rep       ownReporter
	// reported dedups per-position (defers replay in the Exit block).
	reported map[token.Pos]bool
}

func runBudgetFlow(pass *Pass) error {
	if !pathIn(pass.Path, budgetScopes...) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					analyzeBudget(pass, funcName(fn), fn.Type, fn.Body)
				}
			case *ast.FuncLit:
				analyzeBudget(pass, "func literal", fn.Type, fn.Body)
			}
			return true
		})
	}
	return nil
}

func analyzeBudget(pass *Pass, name string, ftype *ast.FuncType, body *ast.BlockStmt) {
	a := &budgetAnalysis{pass: pass, fnName: name, reported: make(map[token.Pos]bool)}
	if ftype.Params != nil {
		for _, field := range ftype.Params.List {
			for _, id := range field.Names {
				obj := pass.Info.Defs[id]
				// A parameter named _ is a visible, deliberate opt-out at the
				// signature; only named parameters carry an obligation.
				if id.Name != "_" && obj != nil && isContextType(obj.Type()) {
					a.ctxParams = append(a.ctxParams, obj)
				}
			}
		}
	}
	g := flow.New(body)
	r := flow.Forward[budgetFact](g, a)
	if !r.Converged {
		return
	}
	r.Visit(func(n ast.Node, before budgetFact) {
		a.rep = func(pos token.Pos, format string, args ...any) {
			if !a.reported[pos] {
				a.reported[pos] = true
				pass.Reportf(pos, format, args...)
			}
		}
		a.scan(n, before)
		a.rep = nil
	})
}

func isContextType(t types.Type) bool {
	return isNamedType(t, "context", "Context")
}

// isContextCall reports a call to a package-level context function named one
// of names.
func (a *budgetAnalysis) isContextCall(call *ast.CallExpr, names ...string) (string, bool) {
	return isPkgCall(a.pass.Info, call, "context", names...)
}

// --- flow.Analysis implementation ---

func (a *budgetAnalysis) Entry() budgetFact {
	f := budgetFact{}
	for _, p := range a.ctxParams {
		f[p] = true
	}
	return f
}

func (a *budgetAnalysis) Transfer(n ast.Node, in budgetFact) budgetFact {
	out := make(budgetFact, len(in))
	for k := range in {
		out[k] = true
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		a.transferAssign(n.Lhs, n.Rhs, out)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, id := range vs.Names {
						lhs[i] = id
					}
					a.transferAssign(lhs, vs.Values, out)
				}
			}
		}
	}
	return out
}

func (a *budgetAnalysis) transferAssign(lhs, rhs []ast.Expr, f budgetFact) {
	assignOne := func(target ast.Expr, carries bool) {
		id, ok := ast.Unparen(target).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := a.pass.Info.ObjectOf(id)
		if obj == nil || !isContextType(obj.Type()) {
			return
		}
		if carries {
			f[obj] = true
		} else {
			delete(f, obj)
		}
	}
	if len(rhs) == 1 && len(lhs) > 1 {
		// ctx, cancel := context.WithTimeout(...): the context is result 0.
		assignOne(lhs[0], a.carriesBudget(rhs[0], f))
		return
	}
	for i := range lhs {
		if i < len(rhs) {
			assignOne(lhs[i], a.carriesBudget(rhs[i], f))
		}
	}
}

// carriesBudget reports whether evaluating e may yield a budget-carrying
// context.
func (a *budgetAnalysis) carriesBudget(e ast.Expr, f budgetFact) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := a.pass.Info.ObjectOf(e)
		return obj != nil && f[obj]
	case *ast.CallExpr:
		if name, ok := a.isContextCall(e, "WithTimeout", "WithDeadline", "WithCancel", "WithValue", "Background", "TODO"); ok {
			switch name {
			case "WithTimeout", "WithDeadline":
				return true
			case "WithCancel", "WithValue":
				return len(e.Args) > 0 && a.carriesBudget(e.Args[0], f)
			default: // Background, TODO
				return false
			}
		}
		// An unknown call (a helper wrapping a context): assume the result
		// keeps whatever budget flowed in.
		for _, arg := range e.Args {
			if a.carriesBudget(arg, f) {
				return true
			}
		}
	}
	return false
}

// --- reporting ---

// scan inspects one CFG node for violations with fact before holding. A
// RangeStmt node carries its whole body (already covered by other blocks)
// and function literals run later under their own analysis, so both are
// pruned.
func (a *budgetAnalysis) scan(n ast.Node, before budgetFact) {
	root := n
	switch n := n.(type) {
	case *flow.ExitMark:
		return // synthetic node; ast.Walk cannot visit it
	case *ast.RangeStmt:
		root = n.X
	}
	if root == nil {
		return
	}
	// Background()/TODO() as the parent of a context.With* derivation is a
	// legitimate root-budget mint, not laundering.
	exempt := map[*ast.CallExpr]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, ok := a.isContextCall(call, "WithTimeout", "WithDeadline", "WithCancel", "WithValue"); ok && len(call.Args) > 0 {
			if parent, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr); ok {
				exempt[parent] = true
			}
		}
		return true
	})
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		a.checkCall(call, before, exempt)
		return true
	})
}

func (a *budgetAnalysis) checkCall(call *ast.CallExpr, before budgetFact, exempt map[*ast.CallExpr]bool) {
	if name, ok := a.isContextCall(call, "Background", "TODO"); ok {
		if len(a.ctxParams) > 0 {
			a.rep(call.Pos(), "%s already receives a context; context.%s() discards the caller's deadline budget (derive from the ctx parameter instead)",
				a.fnName, name)
			return
		}
		if exempt[call] {
			return
		}
		if live := a.liveBudget(before); live != "" {
			a.rep(call.Pos(), "context.%s() passed along while budget context %q is live; pass %q so the deadline propagates",
				name, live, live)
		}
		return
	}
	a.checkSibling(call, before)
}

// checkSibling reports calls to budget-less methods whose receiver offers a
// Context-suffixed variant while a budget is live.
func (a *budgetAnalysis) checkSibling(call *ast.CallExpr, before budgetFact) {
	live := a.liveBudget(before)
	if live == "" {
		return
	}
	fn := calleeFunc(a.pass.Info, call)
	if fn == nil || fn.Pkg() == nil || !inDagger(fn) {
		return
	}
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return // already budget-aware
		}
	}
	sibling := fn.Name() + "Context"
	obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), sibling)
	if m, ok := obj.(*types.Func); !ok || m == nil {
		return
	}
	a.rep(call.Pos(), "%s drops the deadline budget carried by %q; use %s so downstream tiers can shed expired work",
		fn.Name(), live, sibling)
}

// liveBudget returns the lexicographically first live budget variable's
// name, or "" when none is live (deterministic across map iteration).
func (a *budgetAnalysis) liveBudget(f budgetFact) string {
	names := make([]string, 0, len(f))
	for obj := range f {
		names = append(names, obj.Name())
	}
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	return names[0]
}

func (a *budgetAnalysis) Join(x, y budgetFact) budgetFact {
	out := make(budgetFact, len(x)+len(y))
	for k := range x {
		out[k] = true
	}
	for k := range y {
		out[k] = true
	}
	return out
}

func (a *budgetAnalysis) Equal(x, y budgetFact) bool {
	if len(x) != len(y) {
		return false
	}
	for k := range x {
		if !y[k] {
			return false
		}
	}
	return true
}
