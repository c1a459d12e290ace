package ringbuf

import "dagger/internal/metrics"

// BufPool is a size-classed free list of byte buffers, the software stand-in
// for the paper's free-buffer FIFOs (§4.4): the data path recycles frame and
// payload buffers through it instead of allocating per message.
//
// A pool holds one bounded MPMC Ring per size class. Get returns a buffer
// whose capacity is at least the requested length (contents undefined); Put
// files a buffer under the largest class that its capacity still satisfies,
// so a recycled buffer always honours Get's capacity contract.
//
// Pools form a two-level hierarchy: per-flow pools share a per-fabric parent.
// A Get that misses locally falls back to the parent before allocating, and a
// Put that overflows the local ring spills to the parent before dropping.
// That keeps buffers circulating even when they migrate between flows (for
// example frames injected by the UDP gateway into a local flow's ring).
type BufPool struct {
	parent  *BufPool
	classes []int // ascending buffer capacities
	rings   []*Ring[[]byte]

	// Loan accounting: buffers handed out by Get and relinquished via Put
	// (whether recycled, spilled, or dropped). At quiescence gets == puts,
	// which is how tests check that no code path leaks a pooled buffer.
	gets metrics.Counter
	puts metrics.Counter
}

// Loans returns the number of buffers handed out by Get and relinquished via
// Put. A steady-state imbalance (gets > puts after all traffic drains) means
// some consumer kept a pooled buffer without repaying it.
func (p *BufPool) Loans() (gets, puts uint64) {
	return p.gets.Load(), p.puts.Load()
}

// NewBufPool creates a pool with the given per-class ring capacity and
// ascending size classes. parent may be nil. Panics if classes is empty or
// not strictly ascending.
func NewBufPool(slots int, parent *BufPool, classes ...int) *BufPool {
	if len(classes) == 0 {
		panic("ringbuf: BufPool needs at least one size class")
	}
	p := &BufPool{parent: parent, classes: classes, rings: make([]*Ring[[]byte], len(classes))}
	prev := 0
	for i, c := range classes {
		if c <= prev {
			panic("ringbuf: BufPool size classes must be strictly ascending")
		}
		prev = c
		p.rings[i] = New[[]byte](slots)
	}
	return p
}

// Get returns a buffer of length n with capacity at least n and undefined
// contents. Requests larger than the biggest size class fall through to the
// allocator; n <= 0 returns nil.
func (p *BufPool) Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	p.gets.Add(1)
	for i, c := range p.classes {
		if n > c {
			continue
		}
		if b, ok := p.rings[i].Pop(); ok {
			return b[:n]
		}
		if p.parent != nil {
			if b := p.parent.get(i, n); b != nil {
				return b
			}
		}
		return make([]byte, n, c)
	}
	return make([]byte, n)
}

// get pops from class ci or any larger class, without allocating. Used for
// parent fallback so a child miss never double-allocates.
func (p *BufPool) get(ci, n int) []byte {
	for i := ci; i < len(p.rings); i++ {
		if b, ok := p.rings[i].Pop(); ok {
			return b[:n]
		}
	}
	return nil
}

// Put recycles b. Buffers smaller than the smallest size class (or nil) are
// dropped; a full local ring spills to the parent pool; a full parent drops
// the buffer for the garbage collector.
func (p *BufPool) Put(b []byte) {
	if cap(b) > 0 {
		p.puts.Add(1)
	}
	p.put(b)
}

// put files b without touching the loan counters, so a spill to the parent
// pool is not double-counted as a second repayment.
func (p *BufPool) put(b []byte) {
	c := cap(b)
	if c < p.classes[0] {
		return
	}
	for i := len(p.classes) - 1; i >= 0; i-- {
		if c < p.classes[i] {
			continue
		}
		if p.rings[i].Push(b[:0]) {
			return
		}
		if p.parent != nil {
			p.parent.put(b)
		}
		return
	}
}
