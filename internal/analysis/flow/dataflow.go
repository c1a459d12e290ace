package flow

import "go/ast"

// Analysis defines one forward dataflow problem over a Graph. The fact type
// F is the lattice element; Join must be a sound upper bound (typically set
// union / pointwise max) so the worklist converges on loops.
//
// Transfer must treat its input fact as immutable and return a fresh (or
// unchanged) value: facts are shared across blocks by the solver.
type Analysis[F any] interface {
	// Entry returns the fact holding at function entry.
	Entry() F
	// Transfer returns the fact after node n executes with fact in holding.
	Transfer(n ast.Node, in F) F
	// Join combines facts from two predecessors.
	Join(a, b F) F
	// Equal reports whether two facts are the same lattice element; the
	// solver stops propagating along an edge when the joined input stops
	// changing.
	Equal(a, b F) bool
}

// Result holds a solved forward dataflow problem.
type Result[F any] struct {
	// In maps each reached block to the fact holding before its first node.
	In map[*Block]F
	// Converged is false only if the solver hit its iteration cap, which
	// indicates a lattice whose Join/Equal do not form a finite-height
	// ascending chain. Analyzers should treat !Converged as "no findings"
	// rather than report from a half-solved state.
	Converged bool

	g *Graph
	a Analysis[F]
}

// Forward solves the dataflow problem a over g with a standard worklist
// iteration and returns the per-block input facts. Blocks never reached from
// Entry (statically dead code) have no entry in Result.In.
func Forward[F any](g *Graph, a Analysis[F]) *Result[F] {
	r := &Result[F]{In: make(map[*Block]F), g: g, a: a}
	r.In[g.Entry] = a.Entry()
	work := []*Block{g.Entry}
	queued := make([]bool, len(g.Blocks))
	queued[g.Entry.Index] = true

	// Safety valve: a well-formed lattice converges in O(blocks * height)
	// steps; the cap only trips on a broken Join/Equal pair.
	maxSteps := 64*len(g.Blocks) + 256
	steps := 0
	for len(work) > 0 {
		if steps++; steps > maxSteps {
			r.Converged = false
			return r
		}
		b := work[0]
		work = work[1:]
		queued[b.Index] = false

		out := r.In[b]
		for _, n := range b.Nodes {
			out = a.Transfer(n, out)
		}
		for _, s := range b.Succs {
			prev, reached := r.In[s]
			next := out
			if reached {
				next = a.Join(prev, out)
			}
			if reached && a.Equal(prev, next) {
				continue
			}
			r.In[s] = next
			if !queued[s.Index] {
				queued[s.Index] = true
				work = append(work, s)
			}
		}
	}
	r.Converged = true
	return r
}

// Visit replays the solved facts over every reached block in index order,
// calling visit(n, before) with the fact holding immediately before each
// node executes. Analyzers report diagnostics from inside visit, where both
// the syntax and the abstract state are in hand.
func (r *Result[F]) Visit(visit func(n ast.Node, before F)) {
	for _, b := range r.g.Blocks {
		in, reached := r.In[b]
		if !reached {
			continue
		}
		fact := in
		for _, n := range b.Nodes {
			visit(n, fact)
			fact = r.a.Transfer(n, fact)
		}
	}
}
