// Package dataplane is the single source of truth for Dagger's NIC
// dataplane policy: flow steering/load balancing, deadline-budget shed
// decisions, and ring/queue admission. The paper's central claim is
// hardware/software co-design — the same dispatch policies govern both the
// real RPC stack and the modelled hardware (§4.2, Fig. 7) — so both of this
// repo's substrates consume this package rather than keeping hand-mirrored
// copies:
//
//   - the functional goroutine stack: fabric.SoftNIC steering and the core
//     server's shed-before-dispatch path;
//   - the discrete-event timing stack: nicmodel.Balancer, the nicmodel RX
//     queue admission check, and microsim's budget-carrying requests.
//
// Every decision here is a pure function over plain inputs (flow count,
// steering key, round-robin counter, remaining budget, queue depth). The
// determinism contract: no wall clock, no rand, no allocation, no hidden
// state — the caller owns all state (its rr counter, its clock, its queues)
// and the same inputs always produce the same decision on every substrate.
// testing.AllocsPerRun pins the zero-allocation property; daggervet's
// simdeterminism analyzer pins the no-wall-clock/no-rand property.
package dataplane

// Scheme selects how requests are balanced across a NIC's RX flows. The
// zero value is SteerStatic, matching both substrates' default.
type Scheme int

const (
	// SteerStatic pins each connection to a flow for its lifetime
	// (connection-level affinity). Connections without an assignment yet
	// fall back to round-robin for the initial placement.
	SteerStatic Scheme = iota
	// SteerUniform spreads individual requests round-robin across flows
	// regardless of connection.
	SteerUniform
	// SteerKeyHash steers by a key extracted from the payload (the paper's
	// object-level balancing), giving all requests for one object the same
	// flow.
	SteerKeyHash
)

func (s Scheme) String() string {
	switch s {
	case SteerStatic:
		return "static"
	case SteerUniform:
		return "uniform"
	case SteerKeyHash:
		return "object-level"
	default:
		return "unknown"
	}
}

// KeyExtractor pulls the steering key out of a request payload for
// SteerKeyHash. It must not retain or mutate the payload.
type KeyExtractor func(payload []byte) []byte

// SteerInput carries the plain inputs of one steering decision. The caller
// owns the round-robin counter and the connection table; dataplane holds no
// state of its own.
type SteerInput struct {
	// NFlows is the number of RX flows on the target NIC (> 0).
	NFlows int
	// ConnFlow is the flow the connection is pinned to (SteerStatic only).
	ConnFlow uint16
	// HasConn reports whether ConnFlow is a real assignment; when false a
	// static steer falls back to round-robin placement via RR.
	HasConn bool
	// Key is the extracted steering key (SteerKeyHash only).
	Key []byte
	// RR is the caller's round-robin counter value for this decision
	// (already advanced; full counter width, wrap-safe).
	RR uint32
}

// Steer computes the flow index for one request under scheme s. It is the
// single steering decision point for both substrates.
func Steer(s Scheme, in SteerInput) uint16 {
	switch s {
	case SteerUniform:
		return RoundRobin(in.RR, in.NFlows)
	case SteerKeyHash:
		return KeyHashFlow(in.Key, in.NFlows)
	default: // SteerStatic
		if in.HasConn {
			return StaticFlow(in.ConnFlow, in.NFlows)
		}
		return RoundRobin(in.RR, in.NFlows)
	}
}

// RoundRobin maps a round-robin counter value to a flow index. The modulo
// is taken at full counter width so the distribution stays uniform across
// the uint32 wrap (flow counts are not powers of two in general).
func RoundRobin(rr uint32, nflows int) uint16 {
	if nflows <= 0 {
		return 0
	}
	return uint16(rr % uint32(nflows))
}

// StaticFlow maps a connection's pinned flow to a valid index, wrapping
// out-of-range assignments instead of faulting (mirrors the hardware, which
// masks the flow field against the configured flow count).
func StaticFlow(connFlow uint16, nflows int) uint16 {
	if nflows <= 0 {
		return 0
	}
	return connFlow % uint16(nflows)
}

// KeyHashFlow maps a steering key to a flow index via HashKey.
func KeyHashFlow(key []byte, nflows int) uint16 {
	if nflows <= 0 {
		return 0
	}
	return uint16(HashKey(key) % uint32(nflows))
}

// HashKey is the dataplane's key hash: FNV-1a over the key bytes, inlined
// so the hot path does not allocate (hash/fnv's interface-based API does).
// Both substrates must use this exact function or object-level steering
// diverges between them.
func HashKey(key []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	return h
}

// ResponseFlow steers a response onto the client NIC: responses return on
// the flow the request was issued from, wrapped to the client's flow count.
func ResponseFlow(reqFlow uint16, nflows int) uint16 {
	return StaticFlow(reqFlow, nflows)
}

// ShouldShed is the deadline-budget shed decision: a request carrying
// budgetMicros (remaining deadline budget in whole microseconds; 0 means no
// deadline) is shed when at least that many microseconds have already
// elapsed since it was received — the deadline has passed before the
// handler would run, so executing it can only waste server time.
//
// Both substrates call this with their own clock: the core server with
// wall-clock elapsed time, the timing stack with virtual sim.Time. Whole
// microseconds keep the decision identical across substrates regardless of
// the clock's native resolution.
func ShouldShed(budgetMicros uint32, elapsedMicros uint64) bool {
	return budgetMicros > 0 && elapsedMicros >= uint64(budgetMicros)
}

// ElapsedMicros converts elapsed nanoseconds to the whole microseconds used
// by ShouldShed, truncating toward zero (an in-progress microsecond has not
// elapsed). Negative elapsed time — a clock read before the request's
// receive stamp — counts as zero.
func ElapsedMicros(elapsedNanos int64) uint64 {
	if elapsedNanos <= 0 {
		return 0
	}
	return uint64(elapsedNanos) / 1000
}

// Admit is the admission decision for a bounded queue: an item is admitted
// while depth < capacity. capacity <= 0 means the queue is unbounded. A
// refused item is dropped, never left with its producer: RX rings are lossy
// by design — the transport layer above recovers, and dropping beats
// head-of-line blocking the NIC pipeline. The fabric counts these drops in
// SoftNIC.Drops (surfacing ErrRingFull to local senders); the nicmodel RX
// path counts them in RxPath.Dropped.
func Admit(depth, capacity int) bool {
	return capacity <= 0 || depth < capacity
}
