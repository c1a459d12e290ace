package sim

// Queue is a bounded FIFO with occupancy statistics, used for NIC flow
// FIFOs, RX/TX rings, and switch ports in the timing models. Items are
// opaque; timing semantics (service rates) are composed by the caller.
type Queue struct {
	items []interface{}
	cap   int // 0 means unbounded

	Enqueued uint64
	Dequeued uint64
	Dropped  uint64
	MaxLen   int
}

// NewQueue creates a queue with the given capacity; capacity 0 means
// unbounded.
func NewQueue(capacity int) *Queue {
	return &Queue{cap: capacity}
}

// Push appends an item. It returns false (and counts a drop) if the queue is
// full.
func (q *Queue) Push(v interface{}) bool {
	if q.cap > 0 && len(q.items) >= q.cap {
		q.Dropped++
		return false
	}
	q.items = append(q.items, v)
	q.Enqueued++
	if len(q.items) > q.MaxLen {
		q.MaxLen = len(q.items)
	}
	return true
}

// Pop removes and returns the oldest item, or nil and false when empty.
func (q *Queue) Pop() (interface{}, bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	q.Dequeued++
	return v, true
}
