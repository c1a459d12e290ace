// Package flow is a small, stdlib-only control-flow and dataflow engine for
// Go function bodies: CFG construction over go/ast plus a forward worklist
// solver with a pluggable lattice (dataflow.go). It exists so daggervet's
// flow-sensitive analyzers — bufownership and budgetflow — can reason
// about branches, loops, and early returns instead of pattern-matching
// statements, the way go/analysis-based ownership and lock-discipline
// verifiers do, while staying free of module downloads.
//
// The CFG is statement-granular: each Block holds the ast.Nodes that execute
// in order when the block runs (statements, plus branch conditions and
// switch/select guards, which appear as expression nodes in the block that
// evaluates them). Edges follow Go control flow: if/else, for/range loops
// with labeled break and continue, switch/type-switch with fallthrough,
// select, goto, and return. A panic() call terminates its path without
// reaching Exit, so exit-path analyses (leak checking) do not fire on
// panicking paths.
//
// Deferred calls run at function exit: each *ast.DeferStmt appears once in
// the block where it is evaluated (so analyses can register it) and again,
// in LIFO order, in the Exit block (so transfer functions can apply the
// deferred call's effect where it actually happens). The synthetic ExitMark
// node closes the Exit block and marks the single point that every
// non-panicking path reaches after defers have run.
package flow

import (
	"go/ast"
	"go/token"
)

// A Block is one straight-line run of nodes with no internal control
// transfer. Execution enters at Nodes[0] and leaves to one of Succs.
type Block struct {
	// Index is the block's position in Graph.Blocks (creation order; the
	// entry block is always index 0).
	Index int
	// Nodes are the statements and guard expressions executed by this block,
	// in order.
	Nodes []ast.Node
	// Succs are the possible successor blocks.
	Succs []*Block
	// Preds are the predecessor blocks (the reverse of Succs).
	Preds []*Block
}

// A Graph is the control-flow graph of one function body.
type Graph struct {
	// Entry is the block control enters at the top of the body.
	Entry *Block
	// Exit is the synthetic block every non-panicking path reaches. Its
	// Nodes replay the function's defers in LIFO order, closed by an
	// *ExitMark.
	Exit *Block
	// Blocks lists every block, indexed by Block.Index.
	Blocks []*Block
	// Defers lists the defer statements in evaluation (encounter) order.
	Defers []*ast.DeferStmt
}

// ExitMark is the synthetic node closing the Exit block: the single point a
// fall-through or return path reaches after deferred calls have run. It
// implements ast.Node so analyses can anchor exit-time diagnostics.
type ExitMark struct {
	// Rbrace is the closing brace of the function body.
	Rbrace token.Pos
}

// Pos implements ast.Node.
func (m *ExitMark) Pos() token.Pos { return m.Rbrace }

// End implements ast.Node.
func (m *ExitMark) End() token.Pos { return m.Rbrace + 1 }

// loopFrame is one enclosing breakable/continuable construct.
type loopFrame struct {
	label     string // "" for unlabeled
	breakTo   *Block
	contTo    *Block // nil for switch/select frames (continue skips them)
	isLoop    bool
	savedFall *Block // fallthrough target active outside this frame
}

type pendingGoto struct {
	from  *Block
	label string
}

type builder struct {
	g     *Graph
	cur   *Block // nil after a terminator: following code is unreachable
	next  string // pending label naming the next loop/switch/select
	fall  *Block // fallthrough target inside a switch clause
	loops []loopFrame
	label map[string]*Block // label -> block the labeled statement starts
	gotos []pendingGoto
}

// New builds the control-flow graph of body. body must be non-nil (a
// function with no body has no flow to analyze).
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}, label: make(map[string]*Block)}
	b.cur = b.newBlock()
	b.g.Entry = b.cur
	b.g.Exit = b.newBlock()
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.g.Exit)
	}
	for _, pg := range b.gotos {
		if to := b.label[pg.label]; to != nil {
			b.edge(pg.from, to)
		}
	}
	// The Exit block replays defers in LIFO order, then the exit mark.
	for i := len(b.g.Defers) - 1; i >= 0; i-- {
		b.g.Exit.Nodes = append(b.g.Exit.Nodes, b.g.Defers[i])
	}
	b.g.Exit.Nodes = append(b.g.Exit.Nodes, &ExitMark{Rbrace: body.Rbrace})
	for _, blk := range b.g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return b.g
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// current returns the block receiving the next node, starting a fresh
// predecessor-less block for statically unreachable code.
func (b *builder) current() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *builder) add(n ast.Node) {
	blk := b.current()
	blk.Nodes = append(blk.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for a loop/switch/select statement.
func (b *builder) takeLabel() string {
	l := b.next
	b.next = ""
	return l
}

func (b *builder) push(f loopFrame) {
	f.savedFall = b.fall
	b.fall = nil
	b.loops = append(b.loops, f)
}

func (b *builder) pop() {
	b.fall = b.loops[len(b.loops)-1].savedFall
	b.loops = b.loops[:len(b.loops)-1]
}

// find locates the innermost frame matching label (continue requires a loop
// frame; break accepts any).
func (b *builder) find(label string, needLoop bool) *loopFrame {
	for i := len(b.loops) - 1; i >= 0; i-- {
		f := &b.loops[i]
		if needLoop && !f.isLoop {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.EmptyStmt:

	case *ast.LabeledStmt:
		// Start a fresh block so goto (and labeled loop back-edges) have a
		// well-defined target.
		target := b.newBlock()
		if b.cur != nil {
			b.edge(b.cur, target)
		}
		b.cur = target
		b.label[s.Label.Name] = target
		b.next = s.Label.Name
		b.stmt(s.Stmt)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.cur = nil // the path ends here, short of Exit
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.current(), b.g.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		b.add(s)
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if f := b.find(label, false); f != nil {
				b.edge(b.current(), f.breakTo)
			}
			b.cur = nil
		case token.CONTINUE:
			if f := b.find(label, true); f != nil {
				b.edge(b.current(), f.contTo)
			}
			b.cur = nil
		case token.GOTO:
			b.gotos = append(b.gotos, pendingGoto{from: b.current(), label: label})
			b.cur = nil
		case token.FALLTHROUGH:
			if b.fall != nil {
				b.edge(b.current(), b.fall)
			}
			b.cur = nil
		}

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		head := b.current()
		after := b.newBlock()
		thenB := b.newBlock()
		b.edge(head, thenB)
		b.cur = thenB
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(head, elseB)
			b.cur = elseB
			b.stmt(s.Else)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		} else {
			b.edge(head, after)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.edge(b.current(), head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		after := b.newBlock()
		cont := head
		if s.Post != nil {
			cont = b.newBlock()
			cont.Nodes = append(cont.Nodes, s.Post)
			b.edge(cont, head)
		}
		if label != "" {
			b.label[label] = head
		}
		if s.Cond != nil {
			b.edge(head, after)
		}
		body := b.newBlock()
		b.edge(head, body)
		b.push(loopFrame{label: label, breakTo: after, contTo: cont, isLoop: true})
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, cont)
		}
		b.pop()
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.edge(b.current(), head)
		head.Nodes = append(head.Nodes, s)
		if label != "" {
			b.label[label] = head
		}
		after := b.newBlock()
		b.edge(head, after) // ranges may be empty
		body := b.newBlock()
		b.edge(head, body)
		b.push(loopFrame{label: label, breakTo: after, contTo: head, isLoop: true})
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.pop()
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(label, s.Body.List, nil)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.caseClauses(label, s.Body.List, s.Assign)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.current()
		after := b.newBlock()
		hasDefault := false
		b.push(loopFrame{label: label, breakTo: after})
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			clause := b.newBlock()
			b.edge(head, clause)
			b.cur = clause
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			} else {
				hasDefault = true
			}
			b.stmtList(cc.Body)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		}
		b.pop()
		// Without a default the select blocks until some case runs, so
		// control cannot skip every clause; select{} never proceeds at all.
		_ = hasDefault
		if len(s.Body.List) == 0 {
			b.cur = nil
			return
		}
		b.cur = after

	default:
		// Assignments, declarations, sends, go statements, inc/dec: one
		// straight-line node. Function literals inside them are separate
		// functions with their own graphs.
		b.add(s)
	}
}

// caseClauses builds the shared switch/type-switch shape. assign, when
// non-nil, is the type-switch binding statement, evaluated in the head.
func (b *builder) caseClauses(label string, clauses []ast.Stmt, assign ast.Stmt) {
	if assign != nil {
		b.add(assign)
	}
	head := b.current()
	after := b.newBlock()
	if label != "" {
		b.label[label] = head
	}
	// Pre-create clause blocks so fallthrough can target the next clause.
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		blocks[i] = b.newBlock()
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	b.push(loopFrame{label: label, breakTo: after})
	for i, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		b.edge(head, blocks[i])
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		if i+1 < len(blocks) {
			b.fall = blocks[i+1]
		} else {
			b.fall = nil
		}
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.pop()
	if !hasDefault {
		b.edge(head, after)
	}
	b.cur = after
}

// isPanicCall reports whether e is a call to the predeclared panic.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
