package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dagger/internal/dataplane"
	"dagger/internal/fabric"
	"dagger/internal/metrics"
	"dagger/internal/wire"
)

// ThreadingModel selects where RPC handlers run (§4.2, §5.7).
type ThreadingModel int

// Threading models.
const (
	// DispatchThreads runs handlers directly in the per-flow dispatch
	// thread (FaRM-style, lowest latency; long handlers block the flow's
	// RX ring).
	DispatchThreads ThreadingModel = iota
	// WorkerThreads hands requests from dispatch threads to a worker pool
	// (higher throughput for long-running handlers, extra queueing
	// latency). This is the paper's "Optimized" model for the Flight
	// service's heavyweight tiers.
	WorkerThreads
)

func (m ThreadingModel) String() string {
	if m == WorkerThreads {
		return "worker"
	}
	return "dispatch"
}

// Handler processes one request payload and returns the response payload.
// The request buffer is borrowed: the server recycles it after the response
// is sent, so a handler that wants to keep request bytes past its return
// must copy them. The returned response is read (marshalled into a frame)
// before the handler's thread proceeds, and is not retained.
//
// ctx carries the request's remaining deadline budget (from the wire header's
// Budget field) and is canceled when the server stops. Handlers that issue
// downstream RPCs should pass ctx along so every tier inherits a strictly
// shrunken deadline and doomed work is shed as early as possible.
type Handler func(ctx context.Context, req []byte) ([]byte, error)

// ServerConfig configures an RpcThreadedServer.
type ServerConfig struct {
	// Threading selects dispatch- or worker-thread processing.
	Threading ThreadingModel
	// Workers sizes the worker pool (WorkerThreads only; default 4).
	Workers int
}

// workerQueue bounds the dispatch->worker queue.
const workerQueue = 1024

// RpcServerThread is one server event loop bound to one NIC flow: the
// dispatch thread of Figure 7.
type RpcServerThread struct {
	srv    *RpcThreadedServer
	flowID uint16
	flow   *fabric.Flow

	Processed metrics.Counter
}

// RpcThreadedServer owns a NIC's server side: a dispatch thread per flow
// and a registry of remote procedures.
type RpcThreadedServer struct {
	nic *fabric.SoftNIC
	cfg ServerConfig

	mu       sync.RWMutex
	handlers map[uint16]Handler
	names    map[uint16]string

	threads []*RpcServerThread
	work    chan workItem
	stop    chan struct{}
	wg      sync.WaitGroup
	started bool

	// baseCtx is the parent of every handler context; Stop cancels it so
	// in-flight handlers blocked on downstream work unwind promptly.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// Counters. metrics.Counter is a drop-in for the atomic.Uint64 these
	// grew up as; every server registers them in its metrics registry.
	Handled metrics.Counter
	Errors  metrics.Counter
	// Shed counts requests dropped before handler invocation because their
	// deadline budget had already expired on arrival or in queue.
	Shed metrics.Counter

	reg *metrics.Registry
}

// Metrics returns the server's telemetry registry. The shed counter uses
// the cross-substrate name (shed.expired) so snapshots diff cleanly against
// the timing stack's NIC monitor.
func (s *RpcThreadedServer) Metrics() *metrics.Registry { return s.reg }

// describeMetrics registers the server's dispatch counters, including one
// per-thread processed counter.
func (s *RpcThreadedServer) describeMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("rpc.handled", &s.Handled)
	reg.RegisterCounter("rpc.errors", &s.Errors)
	reg.RegisterCounter("shed.expired", &s.Shed)
	for _, t := range s.threads {
		reg.RegisterCounter(fmt.Sprintf("thread.%d.processed", t.flowID), &t.Processed)
	}
}

type workItem struct {
	t        *RpcServerThread
	m        wire.Message
	received time.Time
	deadline time.Time // zero when the request carries no budget
}

// ShedDecision is the functional substrate's entry into the shared
// dataplane shed policy: a request received at received carrying budget
// microseconds of deadline budget (0 = no deadline) is shed when the
// handler would only start at execStart, after the budget has expired.
// It is exported so the cross-substrate parity test can assert the server
// and the timing model's nicmodel.NIC.ShedExpired reach identical verdicts.
func ShedDecision(received, execStart time.Time, budget uint32) bool {
	elapsed := dataplane.ElapsedMicros(execStart.Sub(received).Nanoseconds())
	return dataplane.ShouldShed(budget, elapsed)
}

// NewRpcThreadedServer creates a server over all flows of nic.
func NewRpcThreadedServer(nic *fabric.SoftNIC, cfg ServerConfig) *RpcThreadedServer {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	s := &RpcThreadedServer{
		nic:      nic,
		cfg:      cfg,
		handlers: make(map[uint16]Handler),
		names:    make(map[uint16]string),
		stop:     make(chan struct{}),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < nic.NumFlows(); i++ {
		fl, _ := nic.Flow(i)
		s.threads = append(s.threads, &RpcServerThread{srv: s, flowID: uint16(i), flow: fl})
	}
	s.reg = metrics.New()
	s.describeMetrics(s.reg)
	return s
}

// Register binds fnID to a handler. Registration must precede Start.
func (s *RpcThreadedServer) Register(fnID uint16, name string, h Handler) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("core: register after start")
	}
	if _, dup := s.handlers[fnID]; dup {
		return fmt.Errorf("core: function %d already registered", fnID)
	}
	s.handlers[fnID] = h
	s.names[fnID] = name
	return nil
}

// Start launches dispatch threads (and the worker pool if configured).
func (s *RpcThreadedServer) Start() error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return fmt.Errorf("core: server already started")
	}
	s.started = true
	s.mu.Unlock()

	if s.cfg.Threading == WorkerThreads {
		s.work = make(chan workItem, workerQueue)
		for i := 0; i < s.cfg.Workers; i++ {
			s.wg.Add(1)
			go s.workerLoop()
		}
	}
	for _, t := range s.threads {
		s.wg.Add(1)
		go s.dispatchLoop(t)
	}
	return nil
}

// Stop shuts down all threads and waits for them. The base handler context
// is canceled first so handlers blocked on downstream calls unwind.
func (s *RpcThreadedServer) Stop() {
	select {
	case <-s.stop:
		return
	default:
		s.baseCancel()
		close(s.stop)
	}
	s.wg.Wait()
	// All dispatch and worker threads have exited, but requests they parked
	// in the worker queue still hold payload-buffer loans; drain and repay
	// them so a stopped server leaves its flow pools balanced.
	if s.work != nil {
		for {
			select {
			case item := <-s.work:
				item.t.flow.Buffers().Put(item.m.Payload)
			default:
				return
			}
		}
	}
}

func (s *RpcThreadedServer) dispatchLoop(t *RpcServerThread) {
	defer s.wg.Done()
	pool := t.flow.Buffers()
	for {
		frame, ok := t.flow.Recv(s.stop)
		if !ok {
			return
		}
		m, err := wire.OpenFrame(frame, pool)
		pool.Put(frame)
		if err != nil {
			continue
		}
		if m.Kind != wire.KindRequest {
			pool.Put(m.Payload)
			continue
		}
		received := time.Now()
		var deadline time.Time
		if m.Budget > 0 {
			deadline = received.Add(time.Duration(m.Budget) * time.Microsecond)
		}
		if s.cfg.Threading == WorkerThreads {
			select {
			case s.work <- workItem{t: t, m: m, received: received, deadline: deadline}:
			case <-s.stop:
				// Shutdown raced the enqueue: the request payload is still
				// this loop's loan, so repay it before exiting.
				pool.Put(m.Payload)
				return
			}
			continue
		}
		s.process(t, m, received, deadline)
	}
}

func (s *RpcThreadedServer) workerLoop() {
	defer s.wg.Done()
	for {
		select {
		case item := <-s.work:
			s.process(item.t, item.m, item.received, item.deadline)
		case <-s.stop:
			return
		}
	}
}

func (s *RpcThreadedServer) process(t *RpcServerThread, m wire.Message, received, deadline time.Time) {
	s.mu.RLock()
	h, ok := s.handlers[m.FnID]
	s.mu.RUnlock()
	execStart := time.Now()

	resp := wire.Message{
		Header: wire.Header{
			Kind:    wire.KindResponse,
			ConnID:  m.ConnID,
			RPCID:   m.RPCID,
			FlowID:  m.FlowID, // steer back to the requester's flow
			FnID:    m.FnID,
			SrcAddr: s.nic.Addr(),
			DstAddr: m.SrcAddr,
		},
	}
	// ECN echo: a congestion mark stamped on the request (by any queue on
	// its way here) is reflected into the response, hint included, so the
	// client's control loop hears about server-side pressure. The response
	// can additionally pick up a fresh mark at the client's own RX ring.
	if m.Congested() {
		resp.Flags |= wire.FlagCongested
		resp.Occupancy = m.Occupancy
	}
	// Connection-cache echo: a request that missed the NIC's near-memory
	// connection cache (§4.2) is reflected into the response so the client
	// can observe a working set outgrowing the cache.
	if m.ConnMissed() {
		resp.Flags |= wire.FlagConnMiss
	}
	switch {
	case !ok:
		resp.Flags |= flagError
		resp.Payload = []byte(ErrNoFn.Error())
		s.Errors.Add(1)
	case ShedDecision(received, execStart, m.Budget):
		// The budget expired on arrival or while queued: shed without
		// invoking the handler — the caller already gave up, so any work
		// here would be doomed (the tail-amplification the budget exists
		// to prevent).
		resp.Flags |= flagShed
		s.Shed.Add(1)
		_ = s.nic.Send(&resp)
		t.flow.Buffers().Put(m.Payload)
		return
	default:
		ctx := s.baseCtx
		if !deadline.IsZero() {
			// Hand the handler the remaining budget so downstream calls
			// inherit a strictly shrunken deadline.
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(s.baseCtx, deadline)
			defer cancel()
		}
		if out, err := h(ctx, m.Payload); err != nil {
			resp.Flags |= flagError
			resp.Payload = []byte(err.Error())
			s.Errors.Add(1)
		} else {
			resp.Payload = out
		}
	}
	t.Processed.Add(1)
	s.Handled.Add(1)
	// Best-effort: a full client ring drops the response, mirroring the
	// paper's lossy transport.
	_ = s.nic.Send(&resp)
	// The request payload (from the flow pool via OpenFrame) is done:
	// Send has marshalled the response, so recycling is safe even when the
	// handler echoed the request buffer back as the response.
	t.flow.Buffers().Put(m.Payload)
}
