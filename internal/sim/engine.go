// Package sim implements a deterministic discrete-event simulation engine
// with a virtual nanosecond clock. It is the substrate for Dagger's timing
// models: interconnect transactions, NIC pipeline stages, network links, and
// queueing all execute as ordered events on a single Engine.
//
// The engine is deliberately single-threaded: determinism matters more than
// host parallelism for reproducing the paper's figures. Events scheduled for
// the same instant fire in scheduling order (a stable tie-break), so repeated
// runs with the same seed produce identical results.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is a point in simulated time, in nanoseconds since simulation start.
type Time int64

// Common durations, expressed in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// Float64 returns t as a float64 number of nanoseconds.
func (t Time) Float64() float64 { return float64(t) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	events  eventHeap
	stopped bool
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return len(e.events) }

// At schedules fn to run at absolute simulated time t. Scheduling in the past
// (t < Now) panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	heap.Push(&e.events, event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) {
	e.At(e.now+d, fn)
}

// Step fires the earliest pending event and returns true, or returns false if
// no events remain.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(event)
	e.now = ev.at
	ev.fn()
	return true
}

// Run fires events until none remain or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the clock
// to the deadline. Events scheduled past the deadline remain pending.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped && len(e.events) > 0 && e.events[0].at <= deadline {
		e.Step()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// Stop halts Run/RunUntil after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }
