package flow

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"strings"
	"testing"
)

// buildFunc parses body as the body of a function and returns its CFG.
func buildFunc(t *testing.T, body string) *Graph {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fn := file.Decls[0].(*ast.FuncDecl)
	return New(fn.Body)
}

// render returns a compact one-line rendering of node n.
func render(n ast.Node) string {
	if _, ok := n.(*ExitMark); ok {
		return "<exit>"
	}
	// A range head node is the whole *ast.RangeStmt; render only its header
	// so body statements don't alias into the head block.
	if r, ok := n.(*ast.RangeStmt); ok {
		return "range " + render(r.X)
	}
	var buf bytes.Buffer
	printer.Fprint(&buf, token.NewFileSet(), n)
	return strings.Join(strings.Fields(buf.String()), " ")
}

// blockWith returns the unique block containing a node whose rendering
// contains substr.
func blockWith(t *testing.T, g *Graph, substr string) *Block {
	t.Helper()
	var found *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if strings.Contains(render(n), substr) {
				if found != nil && found != b {
					t.Fatalf("node %q appears in blocks %d and %d", substr, found.Index, b.Index)
				}
				found = b
			}
		}
	}
	if found == nil {
		t.Fatalf("no block contains %q", substr)
	}
	return found
}

// reachable returns the set of blocks reachable from b (including b).
func reachable(b *Block) map[*Block]bool {
	seen := map[*Block]bool{b: true}
	stack := []*Block{b}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range cur.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

func hasSucc(b, target *Block) bool {
	for _, s := range b.Succs {
		if s == target {
			return true
		}
	}
	return false
}

func TestIfElse(t *testing.T) {
	g := buildFunc(t, `
		if cond() {
			a()
		} else {
			b()
		}
		fin()
	`)
	cond := blockWith(t, g, "cond()")
	aB := blockWith(t, g, "a()")
	bB := blockWith(t, g, "b()")
	dB := blockWith(t, g, "fin()")
	if !hasSucc(cond, aB) || !hasSucc(cond, bB) {
		t.Errorf("cond block %d should branch to a (%d) and b (%d); succs %v", cond.Index, aB.Index, bB.Index, cond.Succs)
	}
	if !hasSucc(aB, dB) || !hasSucc(bB, dB) {
		t.Errorf("both arms should rejoin at fin()")
	}
	if !reachable(g.Entry)[g.Exit] {
		t.Errorf("exit unreachable")
	}
}

func TestIfWithoutElse(t *testing.T) {
	g := buildFunc(t, `
		if cond() {
			a()
		}
		fin()
	`)
	cond := blockWith(t, g, "cond()")
	dB := blockWith(t, g, "fin()")
	if !hasSucc(cond, dB) {
		t.Errorf("if without else must have a fall-through edge from the condition to fin()")
	}
}

func TestForLoop(t *testing.T) {
	g := buildFunc(t, `
		for i := 0; i < n; i++ {
			body()
		}
		after()
	`)
	cond := blockWith(t, g, "i < n")
	body := blockWith(t, g, "body()")
	post := blockWith(t, g, "i++")
	after := blockWith(t, g, "after()")
	if !hasSucc(cond, body) || !hasSucc(cond, after) {
		t.Errorf("loop head must branch into the body and out to after()")
	}
	if !hasSucc(body, post) {
		t.Errorf("body must flow to the post statement")
	}
	if !hasSucc(post, cond) {
		t.Errorf("post statement must close the back edge to the condition")
	}
}

func TestForWithoutCond(t *testing.T) {
	g := buildFunc(t, `
		for {
			if done() {
				break
			}
		}
		after()
	`)
	after := blockWith(t, g, "after()")
	brk := blockWith(t, g, "break")
	if !hasSucc(brk, after) {
		t.Errorf("break must edge to after()")
	}
	// `for {}` has no condition exit: after() is reachable only via break.
	if len(after.Preds) != 1 || after.Preds[0] != brk {
		t.Errorf("after() should be reached only through break; preds %v", after.Preds)
	}
}

func TestSwitchFallthrough(t *testing.T) {
	g := buildFunc(t, `
		switch tag() {
		case 1:
			a()
		case 2:
			b()
			fallthrough
		case 3:
			c()
		default:
			d()
		}
		e()
	`)
	head := blockWith(t, g, "tag()")
	aB := blockWith(t, g, "a()")
	cB := blockWith(t, g, "c()")
	eB := blockWith(t, g, "e()")
	fall := blockWith(t, g, "fallthrough")
	if len(head.Succs) != 4 {
		t.Errorf("switch with a default must branch only into its 4 clauses; succs %v", head.Succs)
	}
	if !hasSucc(fall, cB) {
		t.Errorf("fallthrough must edge into the next case body")
	}
	if !hasSucc(aB, eB) {
		t.Errorf("case bodies must flow to the statement after the switch")
	}
}

func TestSwitchNoDefault(t *testing.T) {
	g := buildFunc(t, `
		switch tag() {
		case 1:
			a()
		}
		e()
	`)
	head := blockWith(t, g, "tag()")
	eB := blockWith(t, g, "e()")
	if !hasSucc(head, eB) {
		t.Errorf("switch without default must have a no-match edge to e()")
	}
}

func TestDeferReplay(t *testing.T) {
	g := buildFunc(t, `
		defer a()
		defer b()
		c()
	`)
	if len(g.Defers) != 2 {
		t.Fatalf("want 2 recorded defers, got %d", len(g.Defers))
	}
	exit := g.Exit.Nodes
	if len(exit) != 3 {
		t.Fatalf("exit block should replay 2 defers plus the mark; got %d nodes", len(exit))
	}
	if !strings.Contains(render(exit[0]), "b()") || !strings.Contains(render(exit[1]), "a()") {
		t.Errorf("defers must replay LIFO: got %q then %q", render(exit[0]), render(exit[1]))
	}
	if _, ok := exit[2].(*ExitMark); !ok {
		t.Errorf("exit block must end with ExitMark, got %T", exit[2])
	}
}

func TestLabeledBreak(t *testing.T) {
	g := buildFunc(t, `
	outer:
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if p(i, j) {
					break outer
				}
			}
		}
		done()
	`)
	brk := blockWith(t, g, "break outer")
	done := blockWith(t, g, "done()")
	if !hasSucc(brk, done) {
		t.Errorf("break outer must jump past both loops to done(); succs %v", brk.Succs)
	}
	inner := blockWith(t, g, "j < 3")
	if hasSucc(brk, inner) {
		t.Errorf("break outer must not fall back into the inner loop")
	}
}

func TestLabeledContinue(t *testing.T) {
	g := buildFunc(t, `
	outer:
		for range rows {
			for range cols {
				if skip() {
					continue outer
				}
				visit()
			}
		}
	`)
	cont := blockWith(t, g, "continue outer")
	outerHead := blockWith(t, g, "range rows")
	if !hasSucc(cont, outerHead) {
		t.Errorf("continue outer must edge to the outer range head")
	}
}

func TestPanicTerminatesPath(t *testing.T) {
	g := buildFunc(t, `
		if bad() {
			panic("boom")
		}
		ok()
	`)
	pan := blockWith(t, g, `panic("boom")`)
	if len(pan.Succs) != 0 {
		t.Errorf("a panicking block must have no successors; got %v", pan.Succs)
	}
	if !reachable(g.Entry)[g.Exit] {
		t.Errorf("the non-panicking path must still reach exit")
	}
}

func TestAllPathsPanic(t *testing.T) {
	g := buildFunc(t, `panic("always")`)
	if reachable(g.Entry)[g.Exit] {
		t.Errorf("exit must be unreachable when every path panics")
	}
}

func TestReturnEdgesToExit(t *testing.T) {
	g := buildFunc(t, `
		if early() {
			return
		}
		work()
	`)
	ret := blockWith(t, g, "return")
	if !hasSucc(ret, g.Exit) {
		t.Errorf("return must edge to the exit block")
	}
	work := blockWith(t, g, "work()")
	if hasSucc(ret, work) {
		t.Errorf("return must not fall through to work()")
	}
}

func TestTypeSwitchAndSelect(t *testing.T) {
	g := buildFunc(t, `
		switch v := x.(type) {
		case int:
			useInt(v)
		case string:
			useString(v)
		}
		select {
		case <-ch:
			got()
		default:
			idle()
		}
		end()
	`)
	for _, want := range []string{"useInt(v)", "useString(v)", "got()", "idle()", "end()"} {
		b := blockWith(t, g, want)
		if !reachable(g.Entry)[b] {
			t.Errorf("%s unreachable", want)
		}
	}
	if !reachable(g.Entry)[g.Exit] {
		t.Errorf("exit unreachable")
	}
}

// assignedVars is a simple monotone lattice (set of assigned variable names)
// used to prove the worklist converges on loops.
type assignedVars struct{}

func (assignedVars) Entry() map[string]bool { return nil }

func (assignedVars) Transfer(n ast.Node, in map[string]bool) map[string]bool {
	assign, ok := n.(*ast.AssignStmt)
	if !ok {
		return in
	}
	out := make(map[string]bool, len(in)+1)
	for k := range in {
		out[k] = true
	}
	for _, lhs := range assign.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			out[id.Name] = true
		}
	}
	return out
}

func (assignedVars) Join(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func (assignedVars) Equal(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestLatticeConvergesOnLoops(t *testing.T) {
	g := buildFunc(t, `
		x := 0
		for i := 0; i < n; i++ {
			if odd(i) {
				y := 1
				use(y)
			} else {
				z := 2
				use(z)
			}
			x = x + 1
		}
		use(x)
	`)
	r := Forward[map[string]bool](g, assignedVars{})
	if !r.Converged {
		t.Fatalf("worklist failed to converge on a monotone lattice")
	}
	exit, ok := r.In[g.Exit]
	if !ok {
		t.Fatalf("exit unreachable")
	}
	for _, v := range []string{"x", "i", "y", "z"} {
		if !exit[v] {
			t.Errorf("exit fact missing %q (loop facts must merge across iterations); got %v", v, exit)
		}
	}
}

// brokenLattice never reports facts equal, simulating a non-converging
// analysis: the solver's safety valve must stop it.
type brokenLattice struct{}

func (brokenLattice) Entry() int                      { return 0 }
func (brokenLattice) Transfer(n ast.Node, in int) int { return in + 1 }
func (brokenLattice) Join(a, b int) int               { return a + b }
func (brokenLattice) Equal(a, b int) bool             { return false }

func TestSafetyValveOnBrokenLattice(t *testing.T) {
	g := buildFunc(t, `
		for {
			if done() {
				break
			}
			spin()
		}
	`)
	r := Forward[int](g, brokenLattice{})
	if r.Converged {
		t.Errorf("a lattice with Equal()==false everywhere must trip the safety valve")
	}
}

func TestVisitSeesBeforeFacts(t *testing.T) {
	g := buildFunc(t, `
		x := 1
		use(x)
	`)
	r := Forward[map[string]bool](g, assignedVars{})
	sawUse := false
	r.Visit(func(n ast.Node, before map[string]bool) {
		if strings.Contains(render(n), "use(x)") {
			sawUse = true
			if !before["x"] {
				t.Errorf("fact before use(x) must include x; got %v", before)
			}
		}
	})
	if !sawUse {
		t.Errorf("Visit never reached use(x)")
	}
}
