// Package core implements Dagger's RPC programming model (§4.2): RpcClient
// and RpcClientPool on the client side, RpcThreadedServer with
// RpcServerThread dispatch loops on the server side, CompletionQueue for
// asynchronous calls, and both dispatch-thread and worker-thread request
// processing. The API follows the paper's Thrift-/Protobuf-inspired design;
// typed stubs over it are produced by the IDL code generator
// (internal/idl, cmd/daggergen).
package core

import (
	"context"
	"errors"
	"fmt"
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
	// always safe to retry (CallRetry does, with scaled backoff).
	ErrCongested = errors.New("core: connection congestion window full")
	// ErrPeerDead reports that the transport layer gave up delivering the
	// request after exhausting retransmissions: the peer (or the path to it)
	// is dead, and the synthetic wire.FlagDead response that carries this
	// verdict let the call fail fast instead of burning its full timeout.
	// Deliberately NOT retryable via CallRetry — re-sending into a dead path
	// converts one fast failure into MaxRetries slow ones; callers that want
	// failover should re-resolve the route first.
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
	conns   map[uint32]uint32            // connID -> destination address
	cong    map[uint32]*dataplane.Window // connID -> AIMD window, opened at dataplane.DefaultMaxWindow
	nextRPC uint64
	pending map[uint64]*call

	defaultConn uint32
	hasConn     bool

	stop     chan struct{}
	stopOnce sync.Once
	recvWG   sync.WaitGroup

	// Counters. metrics.Counter is a drop-in for the atomic.Uint64 these
	// grew up as; every client registers them in its metrics registry.
	Issued    metrics.Counter
	Completed metrics.Counter
	TimedOut  metrics.Counter
	Canceled  metrics.Counter
	// Marks counts responses that arrived carrying a congestion mark;
	// Refused counts issues rejected client-side by a full congestion
	// window (ErrCongested — the request never reached the NIC).
	Marks   metrics.Counter
	Refused metrics.Counter
	// ConnMisses counts responses whose request missed the server NIC's
	// connection cache (the echoed wire.FlagConnMiss): nonzero means the
	// active connection working set no longer fits near memory (§4.2).
	ConnMisses metrics.Counter
	// Late counts responses that arrived after their call was abandoned
	// (timeout/cancel) or that duplicated an already-completed RPC — the
	// observable trace of the fabric's at-least-once delivery under faults.
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

// backoffScale maps connID's most recent congestion hint to the integer
// backoff multiplier the retry helpers apply (1 when the connection is not
// congested or not open).
func (c *RpcClient) backoffScale(connID uint32) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cc := c.cong[connID]; cc != nil {
		return dataplane.BackoffScale(cc.LastHint)
	}
	return 1
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
		conns:   make(map[uint32]uint32),
		cong:    make(map[uint32]*dataplane.Window),
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
	c.conns[id] = dstAddr
	w := dataplane.NewWindow(dataplane.DefaultMaxWindow)
	c.cong[id] = &w
	if !c.hasConn {
		c.defaultConn = id
		c.hasConn = true
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
	dst, ok := c.conns[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrConnNotOpen, id)
	}
	delete(c.conns, id)
	delete(c.cong, id)
	if c.defaultConn == id {
		c.hasConn = false
		for rest := range c.conns {
			if !c.hasConn || rest < c.defaultConn {
				c.defaultConn = rest
				c.hasConn = true
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
		DstAddr: dst,
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
	c.mu.Lock()
	conn := c.defaultConn
	ok := c.hasConn
	c.mu.Unlock()
	if !ok {
		return nil, errNoConn
	}
	return c.CallConnContext(ctx, conn, fnID, req)
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
	var t *time.Timer
	if timeout := time.Duration(c.timeout.Load()); timeout > 0 {
		t = acquireTimer(timeout)
		timerC = t.C
	}
	select {
	case <-cl.done:
	case <-ctx.Done():
		// Cancellation or deadline expiry: abandon the call. The receive
		// path repays the pooled response buffer if a late response lands.
		if c.abandon(cl) {
			c.release(cl)
			if t != nil {
				releaseTimer(t)
			}
			err := ctx.Err()
			if errors.Is(err, context.DeadlineExceeded) {
				c.TimedOut.Add(1)
			} else {
				c.Canceled.Add(1)
			}
			return nil, err
		}
		// The response raced in: the receive path owns the call and is
		// about to signal it. Consume the completion instead.
		<-cl.done
	case <-timerC:
		if c.abandon(cl) {
			c.release(cl)
			releaseTimer(t)
			c.TimedOut.Add(1)
			return nil, ErrTimeout
		}
		// The response raced in between the timer firing and the
		// abandon: the receive path owns the call and is about to
		// signal it. Consume the completion instead of timing out.
		<-cl.done
	case <-c.stop:
		if t != nil {
			releaseTimer(t)
		}
		return nil, ErrClientClose
	}
	if t != nil {
		releaseTimer(t)
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
// a cancellation after issue does not revoke the callback: the response (or
// the client timeout/close) completes it.
func (c *RpcClient) CallAsyncContext(ctx context.Context, fnID uint16, req []byte, cb func([]byte, error)) error {
	c.mu.Lock()
	conn := c.defaultConn
	ok := c.hasConn
	c.mu.Unlock()
	if !ok {
		return errNoConn
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
	select {
	case <-c.stop:
		return nil, ErrClientClose
	default:
	}
	c.mu.Lock()
	dst, ok := c.conns[connID]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %d", ErrConnNotOpen, connID)
	}
	cc := c.cong[connID]
	if cc != nil && cc.Full() {
		// AIMD window full: refuse locally instead of piling onto a queue
		// that just told us it is congested. Nothing was sent, so the
		// caller (typically CallRetry) can back off and try again.
		c.mu.Unlock()
		c.Refused.Add(1)
		return nil, ErrCongested
	}
	if cc != nil {
		cc.InFlight++
	}
	c.nextRPC++
	id := c.nextRPC
	cl := callPool.Get().(*call)
	cl.id = id
	cl.conn = connID
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
		// this RPC id; the call is safe to recycle once unregistered.
		if c.abandon(cl) {
			c.release(cl)
		}
		return nil, err
	}
	c.Issued.Add(1)
	return cl, nil
}

// abandon unregisters cl from the pending table, returning true if this
// caller won ownership of the call. A false return means the receive path
// already claimed it and will (or did) complete it.
func (c *RpcClient) abandon(cl *call) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.pending[cl.id]; ok && cur == cl {
		delete(c.pending, cl.id)
		// The call will never complete through the receive path, so its
		// congestion-window slot frees here. Whoever removes the pending
		// entry — this abandon or the receive path — decrements exactly once.
		if cc := c.cong[cl.conn]; cc != nil {
			cc.Release()
		}
		return true
	}
	return false
}

// release returns a call to the pool. The caller must own the call (have
// received its done signal, or won abandon).
func (c *RpcClient) release(cl *call) {
	select {
	case <-cl.done: // drain a stale signal so the next user starts clean
	default:
	}
	cl.id = 0
	cl.conn = 0
	cl.sync = false
	cl.cb = nil
	cl.resp = nil
	cl.err = nil
	callPool.Put(cl)
}

// recvLoop is the client's receive path: it drains the flow's RX ring,
// opens each whole frame (wire.OpenFrame: one header parse, one payload
// copy), matches responses to pending calls, and completes them. Frames are
// recycled to the flow's buffer pool as soon as they are opened; payloads
// are handed to callers owned (synchronous calls) or parked in the
// CompletionQueue (asynchronous).
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
		c.mu.Lock()
		cl, ok := c.pending[m.RPCID]
		if ok {
			delete(c.pending, m.RPCID)
			c.noteCompletionLocked(cl.conn, &m.Header)
		}
		c.mu.Unlock()
		if !ok {
			// Late response: the call timed out/was canceled, or this is a
			// duplicate of an already-completed RPC (at-least-once delivery
			// under fault injection). Repay the loan and count it.
			c.Late.Add(1)
			pool.Put(m.Payload)
			continue
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
		if cl.sync {
			// Ownership of resp transfers to the blocked caller; the
			// CompletionQueue only accumulates asynchronous completions.
			cl.resp, cl.err = resp, rerr
			cl.done <- struct{}{}
			continue
		}
		c.cq.complete(completion{RPCID: m.RPCID, FnID: m.FnID, Resp: resp, Err: rerr})
		if cl.cb != nil {
			cl.cb(resp, rerr)
		}
		c.release(cl)
	}
}

// noteCompletionLocked applies one response's congestion signal to its
// connection's window. Callers hold c.mu. RPC ids are the window's issue
// sequence, so marks on calls issued before the last decrease are absorbed.
func (c *RpcClient) noteCompletionLocked(connID uint32, h *wire.Header) {
	if cc := c.cong[connID]; cc != nil {
		cc.OnResponse(h.RPCID, c.nextRPC, h.Congested(), h.Occupancy)
	}
}

// Close shuts the client down; in-flight synchronous calls return
// ErrClientClose.
func (c *RpcClient) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.recvWG.Wait()
}

// Response header flags.
const (
	// flagError marks a response carrying a handler error string.
	flagError = 0x1
	// flagShed marks a response for a request the server dropped before
	// invoking the handler because its deadline budget had expired.
	flagShed = 0x2
)
