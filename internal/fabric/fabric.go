// Package fabric is the functional (real-goroutine) counterpart of the
// hardware Dagger NIC: an in-process acceleration fabric that the core RPC
// API drives exactly as the paper's software stack drives the FPGA. Each
// endpoint gets a SoftNIC with per-flow RX rings (lock-free, one ring per
// flow as in Figure 7); a Fabric routes frames between NICs the way the
// paper's loopback network and ToR switch model do between NIC instances on
// the FPGA.
//
// The SoftNIC performs the work the paper offloads to hardware — framing,
// connection lookup, response steering, load balancing across server flows —
// so the software above it (internal/core) stays as thin as the paper's
// host stack: write an RPC object to a ring, read completions from a ring.
//
// # Buffer ownership
//
// The data path recycles frame buffers through size-classed free lists
// (ringbuf.BufPool) instead of allocating per message, mirroring the paper's
// free-buffer FIFOs. The ownership contract:
//
//   - SoftNIC.Send marshals into a buffer drawn from the destination flow's
//     pool and hands ownership to the ring. The *wire.Message passed to Send
//     is only read during the call; callers keep ownership of m.Payload.
//   - The ring consumer (RpcClient recv loop or server dispatch thread) owns
//     each frame it pops and must return it via Flow.Buffers().Put once
//     wire.OpenFrame has opened it.
//   - Fabric.Inject takes ownership of its frame argument on every path,
//     including errors: the buffer is either delivered to a ring or returned
//     to a pool. Callers must not touch the frame after Inject returns.
//   - A Gateway borrows the frame only for the duration of the call and must
//     not retain it after returning; implementations that queue or retransmit
//     (UDP, Reliable) copy it first.
//   - Payload buffers wire.OpenFrame hands to consumers (Message.Payload)
//     are owned by the consumer, which repays the loan with a Put on the same
//     pool hierarchy when done.
package fabric

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dagger/internal/connstate"
	"dagger/internal/dataplane"
	"dagger/internal/faults"
	"dagger/internal/metrics"
	"dagger/internal/ringbuf"
	"dagger/internal/wire"
)

// Errors returned by fabric operations.
var (
	ErrNoRoute    = errors.New("fabric: no NIC at destination address")
	ErrFlowRange  = errors.New("fabric: flow index out of range")
	ErrClosed     = errors.New("fabric: NIC closed")
	ErrRingFull   = errors.New("fabric: destination ring full")
	ErrDupAddress = errors.New("fabric: address already in use")
)

// Balancer is the steering scheme for incoming requests. It aliases
// dataplane.Scheme: the decision logic lives in internal/dataplane, shared
// verbatim with the timing stack's nicmodel so the two substrates cannot
// drift.
type Balancer = dataplane.Scheme

// Steering schemes for incoming requests (aliases kept for API
// compatibility; see dataplane.Scheme for semantics).
const (
	// BalanceStatic pins each connection to the flow assigned at connect
	// time.
	BalanceStatic = dataplane.SteerStatic
	// BalanceUniform round-robins incoming requests over flows.
	BalanceUniform = dataplane.SteerUniform
	// BalanceObjectLevel hashes a key extracted from the payload, giving
	// MICA-style object-to-core affinity.
	BalanceObjectLevel = dataplane.SteerKeyHash
)

// KeyExtractor pulls the steering key out of a request payload for
// object-level balancing. Registered per NIC by the application (the paper
// instantiates an application-specific balancer inside the NICs serving
// MICA tiers, §5.7).
type KeyExtractor = dataplane.KeyExtractor

// Flow is one NIC flow. Dagger's stack is symmetric — the same NIC serves
// both RPC clients and servers, with frames distinguished by the request
// type field (§4.4) — so each flow carries two RX rings: inbound requests
// (consumed by the server dispatch thread) and inbound responses (consumed
// by the RpcClient's receive path). Each ring has a wake channel so
// receivers need not spin.
type Flow struct {
	req     *ringbuf.Ring[[]byte]
	resp    *ringbuf.Ring[[]byte]
	reqWake chan struct{}
	rspWake chan struct{}
	pool    *ringbuf.BufPool
	dropped metrics.Counter
	marked  metrics.Counter
}

// bufClasses are the default buffer size classes shared by every data-path
// pool: small control frames up to the largest legal frame, so any frame or
// payload fits a pooled buffer.
var bufClasses = []int{64, 256, 1024, 4096, wire.MaxFrameSize}

// Default per-class ring capacities: flowPoolSlots per flow,
// fabricPoolSlots in the shared per-fabric parent that flow pools spill
// into and refill from.
const (
	flowPoolSlots   = 64
	fabricPoolSlots = 256
)

// PoolConfig describes how the fabric sizes its buffer pools, a ladder
// suited to the mixed small-RPC workloads of the paper's evaluation.
type PoolConfig struct {
	// Classes is the ascending ladder of buffer size classes. The last
	// class must be at least wire.MaxFrameSize so any legal frame fits a
	// pooled buffer.
	Classes []int
	// FlowSlots is the per-class ring capacity of each per-flow pool.
	FlowSlots int
	// FabricSlots is the per-class ring capacity of the shared per-fabric
	// parent pool that flow pools spill into and refill from.
	FabricSlots int
}

// DefaultPoolConfig returns the pool sizing used by NewFabric.
func DefaultPoolConfig() PoolConfig {
	return PoolConfig{
		Classes:     append([]int(nil), bufClasses...),
		FlowSlots:   flowPoolSlots,
		FabricSlots: fabricPoolSlots,
	}
}

func newFlow(depth int, parent *ringbuf.BufPool) *Flow {
	return &Flow{
		req:     ringbuf.New[[]byte](depth),
		resp:    ringbuf.New[[]byte](depth),
		reqWake: make(chan struct{}, 1),
		rspWake: make(chan struct{}, 1),
		pool:    ringbuf.NewBufPool(flowPoolSlots, parent, bufClasses...),
	}
}

// Buffers returns the flow's frame buffer pool. Ring consumers return frames
// here once they are opened, and recycle opened payloads here when done.
func (f *Flow) Buffers() *ringbuf.BufPool { return f.pool }

func (f *Flow) deliver(frame []byte, isResponse bool) bool {
	ring, wake := f.req, f.reqWake
	if isResponse {
		ring, wake = f.resp, f.rspWake
	}
	// ECN-style congestion marking (the closed loop the paper's NIC exports
	// to the host stack): if the ring is already at or past the dataplane
	// mark threshold, stamp the frame before publishing it. The frame is
	// still exclusively ours until Push succeeds, so patching its header
	// bytes is race-free.
	if depth := ring.Len(); dataplane.Mark(depth, ring.Cap()) {
		wire.StampCongestion(frame, dataplane.OccupancyHint(depth, ring.Cap()))
		f.marked.Add(1)
	}
	if !ring.Push(frame) {
		// Full RX ring: drop the newest frame, never blocking the fabric.
		f.dropped.Add(1)
		return false
	}
	select {
	case wake <- struct{}{}:
	default:
	}
	return true
}

func recvFrom(ring *ringbuf.Ring[[]byte], wake chan struct{}, stop <-chan struct{}) ([]byte, bool) {
	for {
		if frame, ok := ring.Pop(); ok {
			return frame, true
		}
		select {
		case <-wake:
		case <-stop:
			// Drain anything that raced in before reporting closure.
			if frame, ok := ring.Pop(); ok {
				return frame, true
			}
			return nil, false
		}
	}
}

// Recv returns the next inbound request frame, blocking until one arrives
// or stop closes. ok=false means the NIC (or caller) shut down.
func (f *Flow) Recv(stop <-chan struct{}) ([]byte, bool) {
	return recvFrom(f.req, f.reqWake, stop)
}

// RecvResponse returns the next inbound response frame, blocking until one
// arrives or stop closes.
func (f *Flow) RecvResponse(stop <-chan struct{}) ([]byte, bool) {
	return recvFrom(f.resp, f.rspWake, stop)
}

// TryRecv returns an inbound frame without blocking, preferring requests.
func (f *Flow) TryRecv() ([]byte, bool) {
	if frame, ok := f.req.Pop(); ok {
		return frame, true
	}
	return f.resp.Pop()
}

// DefaultConnCacheSize is the per-NIC connection cache capacity if not
// overridden by CreateNICConns: the near-memory working set the NIC steers
// from without paying the host-lookup penalty (§4.2).
const DefaultConnCacheSize = 1024

// SoftNIC is one endpoint's software NIC instance.
type SoftNIC struct {
	addr   uint32
	fab    *Fabric
	flows  []*Flow
	closed atomic.Bool

	rr atomic.Uint32

	mu        sync.RWMutex
	balancer  Balancer
	extractor KeyExtractor
	// conns is the §4.2 connection manager: a bounded direct-mapped cache of
	// connection → assigned-local-flow entries backed by a host store, with
	// the geometry and accounting owned by internal/connstate (shared with
	// the timing stack's nicmodel so the substrates cannot drift).
	conns *connstate.Cache[uint16]

	// Chaos plane: the shared fault stage (faults.Stage) at queue admission,
	// idle until SetFaultInjector; it owns the fault.* counters. faultMu
	// guards it, which also serializes verdict consumption so the admission
	// index — and therefore the verdict sequence — is deterministic under a
	// serial driver.
	faultMu sync.Mutex
	faults  *faults.Stage[admission]

	// Monitor counters (the packet monitor block). metrics.Counter is a
	// drop-in for the atomic.Uint64 these grew up as; every NIC registers
	// them in its metrics registry at creation.
	RPCsIn   metrics.Counter
	RPCsOut  metrics.Counter
	BytesIn  metrics.Counter
	BytesOut metrics.Counter
	Drops    metrics.Counter

	reg        *metrics.Registry
	frameBytes *metrics.Histogram
}

// admission is one frame at a NIC's queue-admission point — the item the
// fault stage carries.
type admission struct {
	fl         *Flow
	frame      []byte
	isResponse bool
}

// ringSink is the flow rings as the fault stage sees them. It is stateless:
// every admission names its own flow.
type ringSink struct{}

func (ringSink) Admit(a admission) bool { return a.fl.deliver(a.frame, a.isResponse) }

func (ringSink) Discard(a admission) { a.fl.pool.Put(a.frame) }

func (ringSink) Clone(a admission) admission {
	dup := a.fl.pool.Get(len(a.frame))
	copy(dup, a.frame)
	a.frame = dup
	return a
}

// Corrupt flips the bit and then verifies for real rather than assuming: the
// header checksum is the hardening under test, and CRC-8 catches every
// single covered-bit flip, so a corrupted frame is dropped at the NIC and
// never dispatched.
func (ringSink) Corrupt(a admission, arg uint32) bool {
	wire.FlipCoveredBit(a.frame, arg)
	return !wire.VerifyChecksum(a.frame)
}

// Metrics returns the NIC's telemetry registry. Shared-policy families use
// the cross-substrate names (conn.*, mark.*) so snapshots diff cleanly
// against the timing stack's nicmodel NIC.
func (n *SoftNIC) Metrics() *metrics.Registry { return n.reg }

// describeMetrics registers the NIC's counters, cache gauges, and the
// observed frame-size histogram into reg.
func (n *SoftNIC) describeMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("rpc.in", &n.RPCsIn)
	reg.RegisterCounter("rpc.out", &n.RPCsOut)
	reg.RegisterCounter("bytes.in", &n.BytesIn)
	reg.RegisterCounter("bytes.out", &n.BytesOut)
	reg.RegisterCounter("drop.ring", &n.Drops)
	n.faults.Describe(reg, "fault.")
	n.frameBytes = reg.Histogram("frame.bytes")
	// The per-flow ring counters aggregate into NIC-wide gauges, the shape
	// the timing stack's RxPath publishes them in.
	reg.Func("mark.rx.stamped", func() int64 {
		var total uint64
		for _, fl := range n.flows {
			total += fl.marked.Load()
		}
		return int64(total)
	})
	reg.Func("drop.rx.ring", func() int64 {
		var total uint64
		for _, fl := range n.flows {
			total += fl.dropped.Load()
		}
		return int64(total)
	})
	connstate.DescribeMetrics(reg, func() (connstate.Stats, int) {
		n.mu.RLock()
		defer n.mu.RUnlock()
		return n.conns.Stats(), n.conns.OpenCount()
	})
}

// Addr returns the NIC's fabric address.
func (n *SoftNIC) Addr() uint32 { return n.addr }

// NumFlows returns the flow count (hard configuration).
func (n *SoftNIC) NumFlows() int { return len(n.flows) }

// Flow returns flow i's receive side.
func (n *SoftNIC) Flow(i int) (*Flow, error) {
	if i < 0 || i >= len(n.flows) {
		return nil, ErrFlowRange
	}
	return n.flows[i], nil
}

// SetBalancer selects the steering scheme for incoming requests
// (soft configuration). The extractor is required for object-level
// balancing. Reconfiguration drops the connection table: flow assignments
// made under the old scheme are stale (switching away from and back to
// static balancing must not resume steering from entries the interim scheme
// never maintained), so static steering restarts from first contact.
func (n *SoftNIC) SetBalancer(b Balancer, ex KeyExtractor) error {
	if b == BalanceObjectLevel && ex == nil {
		return fmt.Errorf("fabric: object-level balancer needs a key extractor")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.balancer = b
	n.extractor = ex
	n.conns.Reset()
	return nil
}

// retireConn removes a connection's steering state in response to a
// KindDisconnect control frame. Idempotent: retiring an unknown connection
// is a no-op.
func (n *SoftNIC) retireConn(src, id uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	_ = n.conns.Close(connstate.Key(src, id))
}

// Close shuts the NIC down and removes it from the fabric. Frames the fault
// stage was still holding go back to their pools — ring consumers are
// assumed gone — so buffer-loan accounting balances.
func (n *SoftNIC) Close() {
	if n.closed.Swap(true) {
		return
	}
	n.faultMu.Lock()
	n.faults.DiscardHeld()
	n.faultMu.Unlock()
	n.fab.remove(n.addr)
}

// SetFaultInjector installs a deterministic fault stage (internal/faults) at
// the NIC's queue-admission point; nil uninstalls it. Reconfiguring releases
// any frames a previous stage was still holding, in hold order, so no pooled
// buffer is stranded across the switch.
func (n *SoftNIC) SetFaultInjector(inj *faults.Injector) {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	n.faults.SetInjector(inj)
}

// FlushFaults releases every frame the fault stage is holding back (Delay
// and Reorder verdicts not yet due), delivering them in hold order. Tests
// and experiments call it when draining a faulted NIC so that ring contents
// and buffer loans account for every admitted frame.
func (n *SoftNIC) FlushFaults() {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	n.faults.Flush()
}

// admit is the destination NIC's queue-admission point: the fault stage
// (when an injector is installed) ahead of ring delivery. admit owns frame on
// every path and returns false only when the frame itself was refused by a
// full ring (after recycling it). Fault-stage losses return true: the sender
// of a frame the chaos plane ate learns no more than the sender of a frame a
// real fabric lost. The idle path stays a direct ring delivery — one lock,
// one branch — because every RPC pays it.
func (n *SoftNIC) admit(fl *Flow, frame []byte, isResponse bool) bool {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	if n.faults.Active() {
		return n.faults.Deliver(admission{fl: fl, frame: frame, isResponse: isResponse})
	}
	if !fl.deliver(frame, isResponse) {
		fl.pool.Put(frame)
		return false
	}
	return true
}

// steer picks the local flow for an inbound message and reports whether the
// connection lookup missed the near-memory cache. Responses return to the
// flow their request left from (§4.2: "the NIC reads this information to
// ensure that the responses are steered to the same flows where requests
// came from"); requests go through the balancer and connection manager.
func (n *SoftNIC) steer(m *wire.Message) (fl *Flow, connMiss bool) {
	if m.Kind == wire.KindResponse {
		return n.flows[dataplane.ResponseFlow(m.FlowID, len(n.flows))], false
	}
	flow, connMiss := n.pickFlow(m)
	return n.flows[flow], connMiss
}

// accept is the destination half of Send and Inject once a frame is steered
// and marshalled: stamp a connection-cache miss (so the server can echo it
// and traces can attribute the penalty), admit to the flow's ring, account
// rpc.in/bytes.in. It owns frame on every path; on ErrRingFull the frame is
// already recycled and the caller counts the drop — Send on the sending NIC,
// Inject, which has no local sender, on this one.
func (n *SoftNIC) accept(fl *Flow, frame []byte, isResponse, connMiss bool) error {
	if connMiss {
		wire.StampConnMiss(frame)
	}
	size := len(frame)
	if !n.admit(fl, frame, isResponse) {
		return ErrRingFull
	}
	n.RPCsIn.Add(1)
	n.BytesIn.Add(uint64(size))
	return nil
}

// pickFlow steers an inbound request to a local flow and reports whether
// the connection lookup missed the near-memory cache. The decision itself
// is dataplane.Steer over connstate.Cache verdicts — this method only
// supplies the NIC's state (rr counter, connection cache, extractor) as
// plain inputs.
func (n *SoftNIC) pickFlow(m *wire.Message) (flow uint16, miss bool) {
	n.mu.RLock()
	balancer, extractor := n.balancer, n.extractor
	n.mu.RUnlock()
	switch balancer {
	case BalanceUniform:
		return dataplane.Steer(balancer, dataplane.SteerInput{
			NFlows: len(n.flows),
			RR:     n.rr.Add(1) - 1,
		}), false
	case BalanceObjectLevel:
		return dataplane.Steer(balancer, dataplane.SteerInput{
			NFlows: len(n.flows),
			Key:    extractor(m.Payload),
		}), false
	default: // static
		key := connstate.Key(m.SrcAddr, m.ConnID)
		n.mu.Lock()
		if f, hit, err := n.conns.Lookup(key); err == nil {
			n.mu.Unlock()
			return dataplane.Steer(balancer, dataplane.SteerInput{
				NFlows:   len(n.flows),
				ConnFlow: f,
				HasConn:  true,
			}), !hit
		}
		// Unknown connection: assign round-robin and open (the CM opens the
		// connection on first contact). Open cannot fail here — the lookup
		// just reported not-open under the same lock hold.
		f := dataplane.Steer(balancer, dataplane.SteerInput{
			NFlows: len(n.flows),
			RR:     n.rr.Add(1) - 1,
		})
		_ = n.conns.Open(key, f)
		n.mu.Unlock()
		return f, false
	}
}

// Send routes a message through the fabric to its destination NIC,
// performing the steering the hardware load balancer and connection manager
// do. Messages to addresses with no local NIC are handed to the fabric's
// gateway (a cross-host transport) if one is attached. Flow-control is lossy
// at full rings, like the paper's best-effort transport (the Protocol unit
// is pass-through unless a transport protocol is layered on the gateway).
func (n *SoftNIC) Send(m *wire.Message) error {
	if n.closed.Load() {
		return ErrClosed
	}
	dst := n.fab.lookup(m.DstAddr)
	if dst == nil {
		gw := n.fab.gateway()
		if gw == nil {
			return ErrNoRoute
		}
		// Marshal into a pooled scratch buffer; the gateway only borrows
		// the frame for the duration of the call.
		frame, err := wire.MarshalAppend(n.fab.pool.Get(m.WireSize())[:0], m)
		if err != nil {
			n.fab.pool.Put(frame)
			return err
		}
		n.RPCsOut.Add(1)
		n.BytesOut.Add(uint64(len(frame)))
		n.frameBytes.Observe(int64(len(frame)))
		err = gw(m.DstAddr, frame)
		n.fab.pool.Put(frame)
		return err
	}
	if m.Kind == wire.KindDisconnect {
		// Connection-control frame: the client is propagating a close so the
		// server NIC can retire the entry instead of leaking it. Consumed by
		// the NIC itself — never delivered to a ring.
		dst.retireConn(m.SrcAddr, m.ConnID)
		return nil
	}
	// Marshal into a buffer from the destination flow's pool; delivery
	// transfers ownership to the ring, and the consumer recycles it.
	fl, connMiss := dst.steer(m)
	frame, err := wire.MarshalAppend(fl.pool.Get(m.WireSize())[:0], m)
	if err != nil {
		fl.pool.Put(frame)
		return err
	}
	n.RPCsOut.Add(1)
	n.BytesOut.Add(uint64(len(frame)))
	n.frameBytes.Observe(int64(len(frame)))
	err = dst.accept(fl, frame, m.Kind == wire.KindResponse, connMiss)
	if err != nil {
		n.Drops.Add(1)
	}
	return err
}

// Gateway forwards frames addressed to NICs not present on this fabric —
// the hook a cross-host transport (internal/transport) attaches to. The
// frame is borrowed: the gateway must not retain it after returning, and
// must copy it if transmission outlives the call.
type Gateway func(dstAddr uint32, frame []byte) error

// Fabric connects SoftNICs by address.
type Fabric struct {
	mu   sync.RWMutex
	nics map[uint32]*SoftNIC
	gw   Gateway
	pool *ringbuf.BufPool
}

// NewFabric creates an empty fabric with DefaultPoolConfig buffer pools.
func NewFabric() *Fabric {
	return &Fabric{
		nics: make(map[uint32]*SoftNIC),
		pool: ringbuf.NewBufPool(fabricPoolSlots, nil, bufClasses...),
	}
}

// Buffers returns the fabric-wide buffer pool, the parent that per-flow
// pools spill into. Gateways draw frames destined for Inject from here.
func (f *Fabric) Buffers() *ringbuf.BufPool { return f.pool }

// SetGateway attaches the route of last resort for non-local destinations.
func (f *Fabric) SetGateway(gw Gateway) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gw = gw
}

func (f *Fabric) gateway() Gateway {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.gw
}

// Inject delivers a frame arriving from a gateway (e.g. a UDP transport) to
// the local destination NIC, applying the same steering as local sends.
// Inject takes ownership of frame on every path: it is either delivered to
// a ring (and recycled by the consumer) or returned to a buffer pool.
//
// dagger:transfers-ownership frame
func (f *Fabric) Inject(frame []byte) error {
	m, _, err := wire.Unmarshal(frame)
	if err != nil {
		f.pool.Put(frame)
		return err
	}
	dst := f.lookup(m.DstAddr)
	if dst == nil {
		f.pool.Put(frame)
		return ErrNoRoute
	}
	if m.Kind == wire.KindDisconnect {
		// Connection-control frame from a remote host: retire the entry and
		// recycle the frame; nothing is delivered to a ring.
		dst.retireConn(m.SrcAddr, m.ConnID)
		f.pool.Put(frame)
		return nil
	}
	fl, connMiss := dst.steer(&m)
	err = dst.accept(fl, frame, m.Kind == wire.KindResponse, connMiss)
	if err != nil {
		// Count the drop on the destination NIC so cross-host drop
		// accounting matches the in-process Send path.
		dst.Drops.Add(1)
	}
	return err
}

// DefaultRingDepth is the per-flow RX ring depth if not overridden.
const DefaultRingDepth = 1024

// CreateNIC instantiates a NIC at addr with nflows flows and the given RX
// ring depth per flow (0 uses DefaultRingDepth). The connection cache gets
// DefaultConnCacheSize entries; use CreateNICConns to size it.
func (f *Fabric) CreateNIC(addr uint32, nflows, ringDepth int) (*SoftNIC, error) {
	return f.CreateNICConns(addr, nflows, ringDepth, 0)
}

// CreateNICConns is CreateNIC with an explicit connection cache capacity
// (§4.2 hard configuration; 0 uses DefaultConnCacheSize, rounded up to a
// power of two). Connections beyond the cache's conflict-free working set
// still steer correctly — they fall back to the backing store — but each
// such lookup counts a miss and stamps the frame with wire.FlagConnMiss.
func (f *Fabric) CreateNICConns(addr uint32, nflows, ringDepth, connCache int) (*SoftNIC, error) {
	if nflows <= 0 {
		return nil, fmt.Errorf("fabric: need at least one flow")
	}
	if ringDepth <= 0 {
		ringDepth = DefaultRingDepth
	}
	if connCache <= 0 {
		connCache = DefaultConnCacheSize
	}
	n := &SoftNIC{
		addr:  addr,
		fab:   f,
		conns: connstate.New[uint16](connCache),
	}
	n.faults = faults.NewStage[admission](ringSink{})
	for i := 0; i < nflows; i++ {
		n.flows = append(n.flows, newFlow(ringDepth, f.pool))
	}
	n.reg = metrics.New()
	n.describeMetrics(n.reg)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.nics[addr]; dup {
		return nil, ErrDupAddress
	}
	f.nics[addr] = n
	return n, nil
}

func (f *Fabric) lookup(addr uint32) *SoftNIC {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.nics[addr]
}

func (f *Fabric) remove(addr uint32) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.nics, addr)
}
