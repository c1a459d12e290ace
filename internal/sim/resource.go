package sim

// Resource models a server with fixed capacity and a FIFO wait queue: CPU
// cores, bus endpoints, switch ports. Acquire either grants a slot
// immediately or enqueues the requester; Release hands the freed slot to the
// longest-waiting requester.
type Resource struct {
	eng      *Engine
	capacity int
	busy     int
	waiters  []func()
}

// NewResource creates a resource with the given slot capacity on eng.
// Capacity must be positive.
func NewResource(eng *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{eng: eng, capacity: capacity}
}

// Acquire requests a slot. fn runs (as a new event at the current time) once
// a slot is granted. The caller must eventually call Release for every grant.
func (r *Resource) Acquire(fn func()) {
	if r.busy < r.capacity {
		r.busy++
		r.eng.After(0, fn)
		return
	}
	r.waiters = append(r.waiters, fn)
}

// Release frees a slot, waking the oldest waiter if any.
func (r *Resource) Release() {
	if r.busy <= 0 {
		panic("sim: release of idle resource")
	}
	if len(r.waiters) > 0 {
		next := r.waiters[0]
		r.waiters = r.waiters[1:]
		r.eng.After(0, next)
		return // slot transfers directly; busy count unchanged
	}
	r.busy--
}

// QueueLen returns the number of waiting requesters.
func (r *Resource) QueueLen() int { return len(r.waiters) }
