// Package core implements Dagger's RPC programming model (§4.2): RpcClient
// and RpcClientPool on the client side, RpcThreadedServer with
// RpcServerThread dispatch loops on the server side, CompletionQueue for
// asynchronous calls, and both dispatch-thread and worker-thread request
// processing. The API follows the paper's Thrift-/Protobuf-inspired design;
// typed stubs over it are produced by the IDL code generator
// (internal/idl, cmd/daggergen).
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dagger/internal/dataplane"
	"dagger/internal/fabric"
	"dagger/internal/metrics"
	"dagger/internal/wire"
)

// Errors returned by the RPC layer.
var (
	ErrTimeout     = errors.New("core: rpc timed out")
	ErrClientClose = errors.New("core: client closed")
	ErrRemote      = errors.New("core: remote handler error")
	ErrNoFn        = errors.New("core: no such remote function")
	// ErrShed reports that the server dropped the request before invoking
	// the handler because its deadline budget had already expired. The
	// handler did not run, so shed requests are always safe to retry.
	ErrShed = errors.New("core: request shed at server (budget expired)")
	// ErrCongested reports that the connection's congestion window is full:
	// recent responses carried congestion marks and the AIMD reaction has
	// capped the in-flight count. The request was never sent, so it is
	// always safe to retry once the window reopens.
	ErrCongested = errors.New("core: connection congestion window full")
	// ErrPeerDead reports that the transport layer gave up delivering the
	// request after exhausting retransmissions: the peer (or the path to it)
	// is dead, and the synthetic wire.FlagDead response that carries this
	// verdict let the call fail fast instead of burning its full timeout.
	// Re-sending into a dead path converts one fast failure into MaxRetries
	// slow ones; callers that want failover should re-resolve the route
	// first.
	ErrPeerDead = errors.New("core: peer dead (transport gave up delivery)")
	// errNoConn is a sentinel: the issue path is allocation-free, so it
	// must not mint a fresh error per call.
	errNoConn = errors.New("core: no open connection")
	// ErrConnNotOpen reports a call or close on a connection ID that is not
	// open — never opened, or already closed. Calls after CloseConnection
	// fail with it rather than being silently re-steered. Wrapped with the
	// offending ID; match with errors.Is.
	ErrConnNotOpen = errors.New("core: connection not open")
)

// DefaultTimeout bounds synchronous calls so a lost best-effort frame
// cannot hang a dispatch thread forever.
const DefaultTimeout = 5 * time.Second

// call tracks one in-flight RPC. Instances are pooled: the done channel is
// capacity 1 and signalled by send (never closed), so a call can be reused
// across RPCs without reallocating the channel.
type call struct {
	id   uint64
	conn uint32 // connection the call was issued on (congestion accounting)
	fn   uint16
	sync bool
	done chan struct{}
	cb   func([]byte, error)
	resp []byte
	err  error
}

var callPool = sync.Pool{
	New: func() any { return &call{done: make(chan struct{}, 1)} },
}

// timerPool recycles timeout timers across synchronous calls.
var timerPool sync.Pool

func acquireTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func releaseTimer(t *time.Timer) {
	t.Stop()
	timerPool.Put(t)
}

// clientConn is one open connection: its destination and its AIMD window,
// opened at dataplane.DefaultMaxWindow.
type clientConn struct {
	dst uint32
	win dataplane.Window
}

// RpcClient issues RPCs over one NIC flow (its RX/TX ring pair, Figure 7).
// A client may hold several open connections; they share the ring (the SRQ
// model, §4.2), so Send is internally synchronized.
type RpcClient struct {
	nic    *fabric.SoftNIC
	flowID uint16
	flow   *fabric.Flow

	cq      *CompletionQueue
	timeout atomic.Int64 // nanoseconds; 0 disables the call timeout

	mu      sync.Mutex
	conns   map[uint32]*clientConn
	nextRPC uint64
	pending map[uint64]*call
	closed  bool // set by Close once it has ended the pending calls

	defaultConn uint32 // Call/CallAsync's connection; 0: none (IDs start at flowID+1)

	stop     chan struct{}
	stopOnce sync.Once
	recvWG   sync.WaitGroup

	// Counters. metrics.Counter is a drop-in for the atomic.Uint64 these
	// grew up as; every client registers them in its metrics registry.
	Issued   metrics.Counter
	TimedOut metrics.Counter
	Canceled metrics.Counter
	// Marks counts responses that arrived carrying a congestion mark;
	// Refused counts issues rejected client-side by a full congestion
	// window (ErrCongested — the request never reached the NIC).
	Marks   metrics.Counter
	Refused metrics.Counter
	// ConnMisses counts responses whose request missed the server NIC's
	// connection cache (the echoed wire.FlagConnMiss): nonzero means the
	// active connection working set no longer fits near memory (§4.2).
	ConnMisses metrics.Counter
	// Completed counts calls ended by a response, whatever its outcome.
	Completed metrics.Counter
	// Late counts responses that found their call already ended: by a
	// give-up (timeout/cancel), by Close, or by an earlier copy of the
	// response — the trace of the fabric's at-least-once delivery.
	Late metrics.Counter
	// PeerDead counts calls failed by a transport dead-letter verdict
	// (ErrPeerDead).
	PeerDead metrics.Counter

	reg *metrics.Registry
}

// Metrics returns the client's telemetry registry.
func (c *RpcClient) Metrics() *metrics.Registry { return c.reg }

// describeMetrics registers the client's call and congestion counters.
func (c *RpcClient) describeMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("call.issued", &c.Issued)
	reg.RegisterCounter("call.completed", &c.Completed)
	reg.RegisterCounter("call.timedout", &c.TimedOut)
	reg.RegisterCounter("call.canceled", &c.Canceled)
	reg.RegisterCounter("call.refused", &c.Refused)
	reg.RegisterCounter("call.late", &c.Late)
	reg.RegisterCounter("call.peerdead", &c.PeerDead)
	reg.RegisterCounter("mark.echoed", &c.Marks)
	reg.RegisterCounter("conn.miss.echoed", &c.ConnMisses)
}

// NewRpcClient binds a client to flow flowID of nic. Each flow should back
// at most one client (1:1 flow-to-ring mapping); this is the caller's
// contract, normally managed by RpcClientPool.
func NewRpcClient(nic *fabric.SoftNIC, flowID int) (*RpcClient, error) {
	fl, err := nic.Flow(flowID)
	if err != nil {
		return nil, err
	}
	c := &RpcClient{
		nic:     nic,
		flowID:  uint16(flowID),
		flow:    fl,
		cq:      NewCompletionQueue(),
		conns:   make(map[uint32]*clientConn),
		pending: make(map[uint64]*call),
		stop:    make(chan struct{}),
	}
	c.reg = metrics.New()
	c.describeMetrics(c.reg)
	c.timeout.Store(int64(DefaultTimeout))
	c.recvWG.Add(1)
	go c.recvLoop()
	return c, nil
}

// SetTimeout overrides the synchronous call timeout (0 disables it). It is
// safe to call concurrently with in-flight calls; calls that have already
// started keep the timeout they observed.
func (c *RpcClient) SetTimeout(d time.Duration) { c.timeout.Store(int64(d)) }

// CompletionQueue returns the client's completion queue.
func (c *RpcClient) CompletionQueue() *CompletionQueue { return c.cq }

// Release returns a response buffer obtained from Call/CallConn (or from a
// completion) to the client's buffer pool. Optional — unreleased buffers are
// simply reclaimed by the GC — but releasing keeps the round trip
// allocation-free. The buffer must not be used after Release.
func (c *RpcClient) Release(resp []byte) {
	if resp != nil {
		c.flow.Buffers().Put(resp)
	}
}

// OpenConnection registers a connection to a destination address and
// returns its connection ID. The first opened connection becomes the
// default for Call/CallAsync.
func (c *RpcClient) OpenConnection(dstAddr uint32) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Connection IDs stay unique across a NIC's clients by flow-indexed
	// residue: client k of an F-flow NIC mints k+1, k+1+F, k+1+2F, … so two
	// clients can never collide, and one client's IDs walk distinct
	// direct-mapped connection-cache slots instead of stacking a single slot
	// (the NIC cache indexes by the ID's LSBs, connstate.Key).
	nflows := uint32(c.nic.NumFlows())
	id := uint32(len(c.conns))*nflows + uint32(c.flowID) + 1
	for {
		if _, dup := c.conns[id]; !dup {
			break
		}
		id += nflows
	}
	c.conns[id] = &clientConn{dst: dstAddr, win: dataplane.NewWindow(dataplane.DefaultMaxWindow)}
	if c.defaultConn == 0 {
		c.defaultConn = id
	}
	return id, nil
}

// CloseConnection removes a connection and propagates the close over the
// wire (a KindDisconnect control frame) so the server NIC retires its
// steering entry instead of leaking it — the lifecycle's close semantics
// come from connstate. If the default connection is closed, the
// lowest-numbered surviving connection becomes the new default —
// deterministically, not at the mercy of map iteration order. Subsequent
// calls on the closed ID fail with ErrConnNotOpen.
func (c *RpcClient) CloseConnection(id uint32) error {
	c.mu.Lock()
	cc, ok := c.conns[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrConnNotOpen, id)
	}
	delete(c.conns, id)
	if c.defaultConn == id {
		c.defaultConn = 0
		for rest := range c.conns {
			if c.defaultConn == 0 || rest < c.defaultConn {
				c.defaultConn = rest
			}
		}
	}
	c.mu.Unlock()
	// Best-effort, like the data path itself: the local state is already
	// gone either way, and the control frame costs one cache line.
	m := wire.Message{Header: wire.Header{
		Kind:    wire.KindDisconnect,
		ConnID:  id,
		FlowID:  c.flowID,
		SrcAddr: c.nic.Addr(),
		DstAddr: cc.dst,
	}}
	_ = c.nic.Send(&m)
	return nil
}

// Call issues a blocking RPC on the default connection. The returned
// response buffer is owned by the caller; pass it to Release when done to
// keep the round trip allocation-free.
func (c *RpcClient) Call(fnID uint16, req []byte) ([]byte, error) {
	return c.CallContext(context.Background(), fnID, req)
}

// CallContext issues a blocking RPC on the default connection under ctx. A
// ctx deadline is stamped into the request header as the remaining budget in
// microseconds, so every downstream tier can shed the request once it
// expires; ctx cancellation or expiry abandons the call promptly (pooled
// buffers are repaid by the receive path when a late response arrives).
func (c *RpcClient) CallContext(ctx context.Context, fnID uint16, req []byte) ([]byte, error) {
	conn, err := c.defaultConnID()
	if err != nil {
		return nil, err
	}
	return c.CallConnContext(ctx, conn, fnID, req)
}

// defaultConnID returns the default connection, or errNoConn when none is
// open.
func (c *RpcClient) defaultConnID() (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.defaultConn == 0 {
		return 0, errNoConn
	}
	return c.defaultConn, nil
}

// CallConn issues a blocking RPC on a specific connection.
func (c *RpcClient) CallConn(connID uint32, fnID uint16, req []byte) ([]byte, error) {
	return c.CallConnContext(context.Background(), connID, fnID, req)
}

// CallConnContext issues a blocking RPC on a specific connection under ctx;
// see CallContext for the deadline/cancellation contract.
func (c *RpcClient) CallConnContext(ctx context.Context, connID uint32, fnID uint16, req []byte) ([]byte, error) {
	budget, err := c.budgetFrom(ctx)
	if err != nil {
		return nil, err
	}
	cl, err := c.issue(connID, fnID, req, budget, nil, true)
	if err != nil {
		return nil, err
	}
	var timerC <-chan time.Time
	if timeout := time.Duration(c.timeout.Load()); timeout > 0 {
		t := acquireTimer(timeout)
		defer releaseTimer(t)
		timerC = t.C
	}
	select {
	case <-cl.done:
	case <-ctx.Done():
		err = ctx.Err()
	case <-timerC:
		err = ErrTimeout
	}
	return c.settle(cl, err)
}

// settle ends a sync call's wait: err is nil when done fired, else why the
// caller gave up (ctx or timeout). A give-up that wins claim counts TimedOut
// or Canceled; one that loses takes the winner's outcome (a response or
// Close) from done. deliver repays a response that comes later.
func (c *RpcClient) settle(cl *call, err error) ([]byte, error) {
	if err != nil {
		if c.claim(cl.id, nil) == cl {
			c.release(cl)
			if errors.Is(err, context.Canceled) {
				c.Canceled.Add(1)
			} else {
				c.TimedOut.Add(1)
			}
			return nil, err
		}
		<-cl.done
	}
	resp, rerr := cl.resp, cl.err
	c.release(cl)
	return resp, rerr
}

// CallAsync issues a non-blocking RPC on the default connection; cb runs on
// the client's receive path when the response (or failure) arrives, after
// being accumulated in the CompletionQueue.
func (c *RpcClient) CallAsync(fnID uint16, req []byte, cb func([]byte, error)) error {
	return c.CallAsyncContext(context.Background(), fnID, req, cb)
}

// CallAsyncContext is CallAsync with a context. The ctx is consulted at issue
// time — an expired or canceled ctx fails fast, and a ctx deadline is stamped
// into the header so downstream tiers shed the request once it expires — but
// a cancellation after issue does not revoke the callback: the response, or
// Close with ErrClientClose, completes it once — the CompletionQueue entry
// first, then cb. No client timeout applies.
func (c *RpcClient) CallAsyncContext(ctx context.Context, fnID uint16, req []byte, cb func([]byte, error)) error {
	conn, err := c.defaultConnID()
	if err != nil {
		return err
	}
	return c.CallConnAsyncContext(ctx, conn, fnID, req, cb)
}

// CallConnAsyncContext issues a non-blocking RPC on a specific connection;
// see CallAsyncContext for the contract.
func (c *RpcClient) CallConnAsyncContext(ctx context.Context, connID uint32, fnID uint16, req []byte, cb func([]byte, error)) error {
	budget, err := c.budgetFrom(ctx)
	if err != nil {
		return err
	}
	_, err = c.issue(connID, fnID, req, budget, cb, false)
	return err
}

// budgetFrom converts ctx's remaining deadline into the header's microsecond
// budget (0 = no deadline), counting and failing fast when ctx is already
// done. Sub-microsecond remainders round up to 1µs so a still-live deadline
// never encodes as "no deadline"; budgets beyond MaxBudget saturate.
func (c *RpcClient) budgetFrom(ctx context.Context) (uint32, error) {
	if err := ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			c.TimedOut.Add(1)
		} else {
			c.Canceled.Add(1)
		}
		return 0, err
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return 0, nil
	}
	rem := time.Until(dl)
	if rem <= 0 {
		c.TimedOut.Add(1)
		return 0, context.DeadlineExceeded
	}
	us := rem.Microseconds()
	if us < 1 {
		us = 1
	}
	if us > int64(wire.MaxBudget) {
		return wire.MaxBudget, nil
	}
	return uint32(us), nil
}

func (c *RpcClient) issue(connID uint32, fnID uint16, req []byte, budget uint32, cb func([]byte, error), sync bool) (*call, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClose
	}
	cc, ok := c.conns[connID]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %d", ErrConnNotOpen, connID)
	}
	if cc.win.Full() {
		// AIMD window full: refuse locally instead of piling onto a queue
		// that just told us it is congested. Nothing was sent, so the
		// caller can back off and try again.
		c.mu.Unlock()
		c.Refused.Add(1)
		return nil, ErrCongested
	}
	cc.win.InFlight++
	dst := cc.dst
	c.nextRPC++
	id := c.nextRPC
	cl := callPool.Get().(*call)
	cl.id = id
	cl.conn = connID
	cl.fn = fnID
	cl.sync = sync
	cl.cb = cb
	c.pending[id] = cl
	c.mu.Unlock()

	m := wire.Message{
		Header: wire.Header{
			Kind:    wire.KindRequest,
			ConnID:  connID,
			RPCID:   id,
			FlowID:  c.flowID,
			FnID:    fnID,
			SrcAddr: c.nic.Addr(),
			DstAddr: dst,
			Budget:  budget,
		},
		Payload: req,
	}
	if err := c.nic.Send(&m); err != nil {
		// The frame never entered a ring, so no response can arrive for
		// this RPC id. If another path (Close) claimed the call first, it
		// has reported the call: an async call is recycled by now and must
		// not be read, and a sync caller takes that outcome from done.
		if c.claim(id, nil) != cl {
			if !sync {
				return nil, nil
			}
			return cl, nil
		}
		c.release(cl)
		return nil, err
	}
	c.Issued.Add(1)
	return cl, nil
}

// claim takes call id out of pending and frees its window slot; nil means
// another path already took the call. resp is the response ending the call
// (its congestion signal feeds the window), or nil when none does.
func (c *RpcClient) claim(id uint64, resp *wire.Header) *call {
	c.mu.Lock()
	cl := c.claimLocked(id, resp)
	c.mu.Unlock()
	return cl
}

// claimLocked is claim with c.mu held. RPC ids are the window's issue
// sequence, so marks on calls issued before the last decrease are absorbed.
func (c *RpcClient) claimLocked(id uint64, resp *wire.Header) *call {
	cl, ok := c.pending[id]
	if !ok {
		return nil
	}
	delete(c.pending, id)
	if cc := c.conns[cl.conn]; cc != nil {
		if resp != nil {
			cc.win.OnResponse(resp.RPCID, c.nextRPC, resp.Congested(), resp.Occupancy)
		} else {
			cc.win.Release()
		}
	}
	return cl
}

// finish reports a claimed call's outcome. A sync call stores it and
// signals done, and its waiter recycles the call; an async call enqueues its
// Completion, then runs its callback, then is recycled.
func (c *RpcClient) finish(cl *call, resp []byte, err error) {
	if cl.sync {
		// Ownership of resp transfers to the blocked caller; the
		// CompletionQueue only accumulates asynchronous completions.
		cl.resp, cl.err = resp, err
		cl.done <- struct{}{}
		return
	}
	c.cq.complete(Completion{RPCID: cl.id, FnID: cl.fn, Resp: resp, Err: err})
	if cl.cb != nil {
		cl.cb(resp, err)
	}
	c.release(cl)
}

// release returns a call to the pool. The caller must own the call: a sync
// waiter after its done signal or a won claim, or finish for an async call.
func (c *RpcClient) release(cl *call) {
	select {
	case <-cl.done: // drain a stale signal so the next user starts clean
	default:
	}
	*cl = call{done: cl.done}
	callPool.Put(cl)
}

// recvLoop is the client's receive path: it drains the flow's RX ring,
// opens each whole frame (wire.OpenFrame: one header parse, one payload
// copy) and hands responses to deliver. Frames are recycled to the flow's
// buffer pool as soon as they are opened.
func (c *RpcClient) recvLoop() {
	defer c.recvWG.Done()
	pool := c.flow.Buffers()
	for {
		frame, ok := c.flow.RecvResponse(c.stop)
		if !ok {
			return
		}
		m, err := wire.OpenFrame(frame, pool)
		pool.Put(frame)
		if err != nil {
			continue
		}
		if m.Kind != wire.KindResponse {
			pool.Put(m.Payload)
			continue
		}
		c.deliver(m)
	}
}

// deliver ends the pending call a response names. Its payload is handed to
// the caller owned (synchronous calls) or parked in the CompletionQueue
// (asynchronous); a response that finds no pending call is repaid and
// counted in Late.
func (c *RpcClient) deliver(m wire.Message) {
	pool := c.flow.Buffers()
	cl := c.claim(m.RPCID, &m.Header)
	if cl == nil {
		// Late response: the call timed out/was canceled or closed, or this
		// is a duplicate of an already-completed RPC (at-least-once delivery
		// under fault injection). Repay the loan and count it.
		c.Late.Add(1)
		pool.Put(m.Payload)
		return
	}
	if m.Congested() {
		c.Marks.Add(1)
	}
	if m.ConnMissed() {
		c.ConnMisses.Add(1)
	}
	var resp []byte
	var rerr error
	switch {
	case m.Flags&wire.FlagDead != 0:
		// Synthetic dead-letter response from the transport bridge: the
		// request was abandoned after exhausting retransmissions.
		rerr = ErrPeerDead
		c.PeerDead.Add(1)
		pool.Put(m.Payload)
	case m.Flags&flagShed != 0:
		rerr = ErrShed
		pool.Put(m.Payload)
	case m.Flags&flagError != 0:
		rerr = fmt.Errorf("%w: %s", ErrRemote, string(m.Payload))
		pool.Put(m.Payload)
	default:
		resp = m.Payload
	}
	c.Completed.Add(1)
	c.finish(cl, resp, rerr)
}

// Close shuts the client down. It stops the receive path, then ends every
// pending call with ErrClientClose, in issue order, through the same finish
// as a response: a sync caller still waiting gets ErrClientClose once the
// receive path has stopped, and an async call gets its CompletionQueue entry
// first, then its callback, before Close returns. Calls issued after Close
// fail with ErrClientClose.
func (c *RpcClient) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.recvWG.Wait()
	c.mu.Lock()
	c.closed = true
	ended := make([]*call, 0, len(c.pending))
	for id := range c.pending {
		ended = append(ended, c.claimLocked(id, nil))
	}
	c.mu.Unlock()
	slices.SortFunc(ended, func(a, b *call) int { return cmp.Compare(a.id, b.id) })
	for _, cl := range ended {
		c.finish(cl, nil, ErrClientClose)
	}
}

// Response header flags.
const (
	// flagError marks a response carrying a handler error string.
	flagError = 0x1
	// flagShed marks a response for a request the server dropped before
	// invoking the handler because its deadline budget had expired.
	flagShed = 0x2
)
