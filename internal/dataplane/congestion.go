package dataplane

// Congestion marking and reaction: the closed-loop half of the dataplane
// policy. Queues on the data path (fabric flow rings, the nicmodel RX ring
// and TX table, microsim tier queues) call Mark as they admit an item; when
// occupancy has crossed the mark threshold the frame is stamped with an
// ECN-style congestion-experienced bit plus a one-byte occupancy hint. The
// server echoes the stamp into its response, and the client reacts: an
// AIMD-style in-flight window (Window) plus a backoff scale (BackoffScale)
// for the capped exponential backoff (Backoff) a refused issue waits out;
// the reliable transport's retransmissions run the same Backoff. Like every
// decision in this package the functions are integer-only and
// allocation-free, so both substrates reach byte-identical mark decisions
// from the same inputs.

// MarkHint is the smallest occupancy hint that encodes a congested queue.
// OccupancyHint quantizes depth/capacity onto [0, 255] such that
// OccupancyHint(d, c) >= MarkHint exactly when Mark(d, c).
const MarkHint uint8 = 128

// DefaultMaxWindow is the AIMD window ceiling for clients that do not
// configure their own. It is deliberately far above any bounded ring on the
// data path: an unmarked connection behaves as if no window existed at all,
// so enabling the control loop is inert until a queue actually reports
// congestion.
const DefaultMaxWindow = 1 << 16

// Mark is the congestion-mark decision for a bounded queue: an item admitted
// when the queue already holds depth items is marked once occupancy has
// reached half of capacity (2*depth >= capacity). capacity <= 0 means the
// queue is unbounded and never marks; negative depth never marks.
//
// Half-capacity marking fires well before the queue's Admit/Overflow policy
// engages, which is the point: the client hears about pressure while there
// is still room to react, instead of discovering it via drops.
func Mark(depth, capacity int) bool {
	return capacity > 0 && depth >= 0 && 2*depth >= capacity
}

// OccupancyHint quantizes a queue's occupancy onto one byte for the wire's
// occupancy-hint field: 0 is empty (or unbounded), 255 is at or beyond
// capacity. Rounding is chosen so the hint and the mark bit agree exactly:
// OccupancyHint(d, c) >= MarkHint exactly when Mark(d, c), for every d, c.
func OccupancyHint(depth, capacity int) uint8 {
	if capacity <= 0 || depth <= 0 {
		return 0
	}
	if depth >= capacity {
		return 255
	}
	return uint8((255*depth + capacity/2) / capacity)
}

// Window is one connection's congestion control loop: an AIMD in-flight
// window driven by the marks echoed in responses, plus the hint that scales
// the refusal backoff. The functional client keeps one per connection and the
// timing-model congestion point keeps one per run; neither is safe for
// concurrent use, so callers serialise access.
type Window struct {
	Size     int    // current in-flight cap
	Max      int    // additive-increase ceiling
	InFlight int    // issued and not yet completed or abandoned
	Marks    uint64 // responses that carried a congestion mark
	Cleans   uint64 // responses that did not
	LastHint uint8  // occupancy hint of the most recent marked response (0 after a clean one)
	epoch    uint64 // halve at most once per window: marks with seq <= epoch are absorbed
}

// NewWindow returns a window opened to its ceiling, so it never binds until
// a mark arrives.
func NewWindow(ceiling int) Window { return Window{Size: ceiling, Max: ceiling} }

// Full reports whether the window refuses another issue.
func (w *Window) Full() bool { return w.InFlight >= w.Size }

// Release frees the in-flight slot of a call that will get no response.
func (w *Window) Release() {
	if w.InFlight > 0 {
		w.InFlight--
	}
}

// OnResponse frees a response's in-flight slot and applies its signal. A
// marked response halves the window (multiplicative decrease, never below 1
// so a marked connection still makes progress) at most once per in-flight
// window: one whose seq is at or below the sequence issued when the window
// last halved echoes the same congestion event and is absorbed. issued is the
// latest sequence issued so far, which becomes that epoch on a halving. A
// clean response grows the window by one up to Max (additive increase) and
// clears the backoff hint.
func (w *Window) OnResponse(seq, issued uint64, marked bool, hint uint8) {
	w.Release()
	if marked {
		w.Marks++
		w.LastHint = hint
		if seq > w.epoch {
			w.Size = max(w.Size/2, 1)
			w.epoch = issued
		}
		return
	}
	w.Cleans++
	w.LastHint = 0
	w.Size = min(w.Size+1, w.Max)
}

// BackoffScale maps the most recent occupancy hint to an integer multiplier
// for Backoff's delay: 1 below the mark threshold (no change),
// 2 for a congested queue, 4 for a queue in the top quarter of its capacity.
// Integer steps keep the schedule deterministic and cheap to apply.
func BackoffScale(hint uint8) int {
	switch {
	case hint < MarkHint:
		return 1
	case hint < 192:
		return 2
	default:
		return 4
	}
}

// Backoff is the capped exponential backoff both substrates run: the delay
// before attempt (1-based) is base doubled once per attempt after the first,
// capped at max. attempt < 1 or base <= 0 waits 0. Units are the caller's
// (nanoseconds on both substrates); no jitter is drawn, so the schedule is a
// pure function of its inputs.
func Backoff(base, max int64, attempt int) int64 {
	if attempt < 1 || base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < attempt; i++ {
		if d > max/2 { // doubling would pass the cap (or overflow)
			return max
		}
		d *= 2
	}
	return min(d, max)
}
