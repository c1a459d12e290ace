package core

import "sync"

// Completion is one finished asynchronous RPC.
type Completion struct {
	RPCID uint64
	FnID  uint16
	Resp  []byte
	Err   error
}

// CompletionQueue accumulates completed requests for asynchronous
// (non-blocking) calls (§4.2: "each RpcClient contains the associated
// CompletionQueue object which accumulates completed requests"). Completed
// entries can be polled, and per-call continuation callbacks are invoked by
// the receive path on arrival.
type CompletionQueue struct {
	mu      sync.Mutex
	entries []Completion
	count   uint64
}

// NewCompletionQueue returns an empty queue.
func NewCompletionQueue() *CompletionQueue {
	return &CompletionQueue{}
}

func (q *CompletionQueue) complete(c Completion) {
	q.mu.Lock()
	q.entries = append(q.entries, c)
	q.count++
	q.mu.Unlock()
}

// Poll removes and returns up to max completed entries (all if max <= 0).
func (q *CompletionQueue) Poll(max int) []Completion {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.entries)
	if max > 0 && max < n {
		n = max
	}
	out := make([]Completion, n)
	copy(out, q.entries[:n])
	q.entries = q.entries[n:]
	return out
}

// Len returns the number of entries waiting to be polled.
func (q *CompletionQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.entries)
}

// Total returns the number of completions ever enqueued.
func (q *CompletionQueue) Total() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}
