package analysis

import (
	"go/ast"
	"go/types"
)

// LockSafety enforces the concurrency discipline of the functional RPC
// stack. It flags (1) mutexes held across blocking operations — channel
// sends/receives, blocking selects, sync.WaitGroup/sync.Cond waits,
// time.Sleep — and (2) return paths on which a locked mutex is provably
// still held (the missing-defer-unlock bug class). Copied locks are left to
// go vet's copylocks check, which CI runs.
var LockSafety = &Analyzer{
	Name: "locksafety",
	Doc:  "flag mutexes held across blocking operations and return paths that leak a held mutex",
	Run:  runLockSafety,
}

// lockScopes are the packages forming the concurrent data path, plus the
// examples users copy concurrency idioms from.
var lockScopes = []string{
	"dagger/internal/core",
	"dagger/internal/transport",
	"dagger/internal/fabric",
	"dagger/examples",
}

func runLockSafety(pass *Pass) error {
	if !pathIn(pass.Path, lockScopes...) {
		return nil
	}
	ls := &lockSim{pass: pass}
	for _, f := range pass.Files {
		// Check every function body — declarations and literals — with a
		// fresh lock state; a goroutine or deferred closure does not hold
		// the locks of its creator.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					ls.scanBlock(n.Body.List, make(lockState))
				}
			case *ast.FuncLit:
				ls.scanBlock(n.Body.List, make(lockState))
			}
			return true
		})
	}
	return nil
}

// lockState tracks, per canonical mutex expression (e.g. "c.mu"), how many
// times it is currently locked and whether an unlock is deferred.
type lockState map[string]*mutexState

type mutexState struct {
	depth    int
	deferred bool
	rlock    bool
}

func (s lockState) clone() lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		c := *v
		out[k] = &c
	}
	return out
}

// anyHeld returns the name of a mutex currently held (including via a
// pending deferred unlock), or "".
func (s lockState) anyHeld() string {
	for k, v := range s {
		if v.depth > 0 {
			return k
		}
	}
	return ""
}

// lockSim is a conservative intra-procedural simulation of mutex state. It
// scans statement lists sequentially, recursing into branches with cloned
// state; branch effects only propagate out of straight-line code, which
// keeps the checker simple and biases it toward no false positives on the
// common lock/early-return/unlock shapes.
type lockSim struct {
	pass *Pass
}

// scanBlock scans stmts under state st, returning the resulting state and
// whether the block always terminates (returns or panics).
func (ls *lockSim) scanBlock(stmts []ast.Stmt, st lockState) (lockState, bool) {
	for _, stmt := range stmts {
		var terminated bool
		st, terminated = ls.scanStmt(stmt, st)
		if terminated {
			return st, true
		}
	}
	return st, false
}

func (ls *lockSim) scanStmt(stmt ast.Stmt, st lockState) (lockState, bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if name, locking, isR := mutexOp(ls.pass, s.X); name != "" {
			ms := st[name]
			if ms == nil {
				ms = &mutexState{}
				st[name] = ms
			}
			if locking {
				ms.depth++
				ms.rlock = isR
			} else if ms.depth > 0 {
				ms.depth--
			}
			return st, false
		}
		ls.checkBlocking(s.X, st)
	case *ast.DeferStmt:
		if name, locking, _ := mutexOp(ls.pass, s.Call); name != "" && !locking {
			ms := st[name]
			if ms == nil {
				ms = &mutexState{}
				st[name] = ms
			}
			ms.deferred = true
		}
		// The deferred call itself runs at return; its body is scanned
		// separately if it is a FuncLit.
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			ls.checkBlocking(e, st)
		}
		for name, ms := range st {
			if ms.depth > 0 && !ms.deferred {
				verb := "Unlock"
				if ms.rlock {
					verb = "RUnlock"
				}
				ls.pass.Reportf(stmt.Pos(),
					"return with %s held; unlock before returning or use defer %s.%s()", name, name, verb)
			}
		}
		return st, true
	case *ast.SendStmt:
		if held := st.anyHeld(); held != "" {
			ls.pass.Reportf(stmt.Pos(),
				"channel send while holding %s; a full channel blocks with the mutex held", held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = ls.scanStmt(s.Init, st)
		}
		ls.checkBlocking(s.Cond, st)
		thenSt, thenTerm := ls.scanBlock(s.Body.List, st.clone())
		var elseTerm bool
		elseSt := st
		if s.Else != nil {
			elseSt, elseTerm = ls.scanStmt(s.Else, st.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			return mergeStates(thenSt, elseSt), false
		}
	case *ast.BlockStmt:
		return ls.scanBlock(s.List, st)
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = ls.scanStmt(s.Init, st)
		}
		if s.Cond != nil {
			ls.checkBlocking(s.Cond, st)
		}
		ls.scanBlock(s.Body.List, st.clone())
	case *ast.RangeStmt:
		ls.checkBlocking(s.X, st)
		ls.scanBlock(s.Body.List, st.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = ls.scanStmt(s.Init, st)
		}
		ls.checkBlocking(s.Tag, st)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				ls.scanBlock(cc.Body, st.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				ls.scanBlock(cc.Body, st.clone())
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			if held := st.anyHeld(); held != "" {
				ls.pass.Reportf(s.Pos(),
					"blocking select while holding %s; unlock before waiting", held)
			}
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				ls.scanBlock(cc.Body, st.clone())
			}
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			ls.checkBlocking(e, st)
		}
	case *ast.DeclStmt:
		// no lock effects
	case *ast.GoStmt:
		// The spawned goroutine does not hold our locks; its body (if a
		// FuncLit) is scanned separately with fresh state.
	case *ast.LabeledStmt:
		return ls.scanStmt(s.Stmt, st)
	}
	return st, false
}

// mergeStates combines two branch outcomes conservatively (minimum depth),
// so that a branch that conditionally locks does not poison the
// fall-through path with false "held" reports.
func mergeStates(a, b lockState) lockState {
	out := make(lockState)
	for k, av := range a {
		c := *av
		if bv, ok := b[k]; ok {
			if bv.depth < c.depth {
				c.depth = bv.depth
			}
			c.deferred = c.deferred || bv.deferred
		} else {
			c.depth = 0
		}
		out[k] = &c
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok {
			c := *bv
			c.depth = 0
			out[k] = &c
		}
	}
	return out
}

// checkBlocking reports blocking operations inside expression e while a
// mutex is held: channel receives and calls to the known blocking set.
func (ls *lockSim) checkBlocking(e ast.Expr, st lockState) {
	held := st.anyHeld()
	if held == "" || e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // runs later / elsewhere
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				ls.pass.Reportf(n.Pos(),
					"channel receive while holding %s; an empty channel blocks with the mutex held", held)
			}
		case *ast.CallExpr:
			if fn := calleeFunc(ls.pass.Info, n); fn != nil && fn.Pkg() != nil {
				switch {
				case fn.Pkg().Path() == "time" && fn.Name() == "Sleep":
					ls.pass.Reportf(n.Pos(), "time.Sleep while holding %s", held)
				case fn.Pkg().Path() == "sync" && fn.Name() == "Wait":
					ls.pass.Reportf(n.Pos(), "sync %s.Wait() while holding %s blocks with the mutex held",
						recvText(n), held)
				}
			}
		}
		return true
	})
}

// mutexOp matches e against `x.Lock()`, `x.RLock()`, `x.Unlock()`,
// `x.RUnlock()` on a sync.Mutex or sync.RWMutex and returns the canonical
// receiver text, whether it is a lock acquisition, and whether it is the
// reader form.
func mutexOp(pass *Pass, e ast.Expr) (name string, locking, rlock bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	fn, _ := pass.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return types.ExprString(sel.X), true, fn.Name() == "RLock"
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), false, fn.Name() == "RUnlock"
	}
	return "", false, false
}

// recvText renders the receiver of a method call for diagnostics.
func recvText(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return types.ExprString(sel.X)
	}
	return ""
}
