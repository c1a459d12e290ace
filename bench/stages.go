package main

import (
	"net"
	"runtime"
	"sync"
	"time"

	"dagger/internal/connstate"
	"dagger/internal/dataplane"
	"dagger/internal/fabric"
	"dagger/internal/faults"
	"dagger/internal/kvs/mica"
	"dagger/internal/metrics"
	"dagger/internal/nicmodel"
	"dagger/internal/ringbuf"
	"dagger/internal/sim"
	"dagger/internal/transport"
	"dagger/internal/wire"
	"dagger/internal/workload"
)

// Stage costs: each layer's exported functions timed in a tight loop on one
// goroutine, fed the workload's own frame shape. They measure the layers from
// outside; nothing in internal/ is instrumented.

// shape is what a workload's frames look like.
type shape struct {
	req, resp []byte // representative request and response payloads
	scheme    dataplane.Scheme
	flows     int
}

func shapeOf(w *workloadDef, seed int64) shape {
	switch w.kind {
	case kindKVS:
		key := workload.KeyForRecord(kvDataset, 1, nil)
		val := make([]byte, kvDataset.ValueSize)
		kvInitialValue(seed, 1, val)
		get, got := wire.NewEncoder(nil), wire.NewEncoder(nil)
		get.Bytes16(key)
		got.Bool(true)
		got.Bytes16(val)
		if w.storeStage() == "kvs.mica_set_ns" {
			set, ok := wire.NewEncoder(nil), wire.NewEncoder(nil)
			set.Bytes16(key)
			set.Bytes16(val)
			ok.Bool(true)
			return shape{req: set.Bytes(), resp: ok.Bytes(), scheme: dataplane.SteerKeyHash, flows: w.serverFlows}
		}
		return shape{req: get.Bytes(), resp: got.Bytes(), scheme: dataplane.SteerKeyHash, flows: w.serverFlows}
	case kindModel:
		p := echoPayloads(seed, 0, 32)[0]
		return shape{req: p, resp: p, scheme: dataplane.SteerStatic, flows: 1}
	default:
		p := echoPayloads(seed, 0, w.payload)[0]
		return shape{req: p, resp: p, scheme: dataplane.SteerStatic, flows: w.serverFlows}
	}
}

// sink keeps results of pure functions alive so the loops are not optimised
// away.
var sink uint64

// stage is one timed loop; run(n) performs the operation n times.
type stage struct {
	name string
	run  func(n int)
}

// timeStage reports ns per operation: the median of five batches sized to
// fill budget between them.
func timeStage(budget time.Duration, run func(n int)) float64 {
	n := 16
	var per float64
	for {
		t0 := now()
		run(n)
		d := now() - t0
		per = float64(d) / float64(n)
		if d >= int64(budget)/40 || n >= 1<<22 {
			break
		}
		n *= 4
	}
	const batches = 5
	if per > 0 {
		n = int(float64(budget) / batches / per)
	}
	if n < 1 {
		n = 1
	}
	var ns [batches]float64
	for i := range ns {
		t0 := now()
		run(n)
		ns[i] = float64(now()-t0) / float64(n)
	}
	return median(ns[:])
}

// stageEnv owns the objects the stage loops run against.
type stageEnv struct {
	req     *wire.Message // the request the wire and fabric stages marshal
	closers []func()
	stages  []stage
}

func (e *stageEnv) add(name string, run func(n int)) {
	e.stages = append(e.stages, stage{name, run})
}

func (e *stageEnv) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
}

func (e *stageEnv) find(name string) func(n int) {
	for _, s := range e.stages {
		if s.name == name {
			return s.run
		}
	}
	return nil
}

// memConn is an in-memory transport.PacketConn that hands a datagram to its
// peer synchronously, so Reliable's protocol cost is timed without a socket.
type memConn struct {
	name    string
	peer    *memConn
	mu      sync.Mutex
	handler func([]byte, string)
}

func (c *memConn) Send(_ string, pkt []byte) error {
	c.peer.mu.Lock()
	h := c.peer.handler
	c.peer.mu.Unlock()
	if h != nil {
		h(pkt, c.name)
	}
	return nil
}
func (c *memConn) SetHandler(h func([]byte, string)) {
	c.mu.Lock()
	c.handler = h
	c.mu.Unlock()
}
func (c *memConn) LocalEndpoint() string { return c.name }
func (c *memConn) Close() error          { return nil }

// newStageEnv builds the stage loops of the layers the workload exercises.
// The others are left out, so their metrics keep the 0 tracedPass gave them
// and the time budget goes to the stages that explain this workload.
func newStageEnv(w *workloadDef, sh shape) (*stageEnv, error) {
	e := &stageEnv{}
	if err := e.addStages(w, sh); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *stageEnv) addStages(w *workloadDef, sh shape) error {
	if w.kind == kindModel {
		return e.addModelStages(sh)
	}
	e.req = &wire.Message{
		Header:  wire.Header{Kind: wire.KindRequest, ConnID: 1, RPCID: 7, FnID: fnEcho, SrcAddr: clientAddr, DstAddr: serverAddr},
		Payload: sh.req,
	}
	frame, err := wire.MarshalAppend(nil, e.req)
	if err != nil {
		return err
	}
	if err := e.addFrameStages(sh, frame); err != nil {
		return err
	}
	if err := e.addFabricStages(sh, frame, w.kind == kindUDP); err != nil {
		return err
	}
	switch w.kind {
	case kindKVS:
		return e.addKVSStages()
	case kindUDP:
		e.addConnStages()
		return e.addTransportStages(frame)
	default:
		e.addConnStages()
		return nil
	}
}

// addFrameStages adds what every frame of a functional workload passes:
// wire, ringbuf, dataplane, the idle fault plane and the metrics handles.
func (e *stageEnv) addFrameStages(sh shape, frame []byte) error {
	req := e.req
	pcfg := fabric.DefaultPoolConfig()
	pool := ringbuf.NewBufPool(pcfg.FlowSlots, nil, pcfg.Classes...)

	scratch := make([]byte, 0, len(frame))
	e.add("wire.marshal_ns", func(n int) {
		for i := 0; i < n; i++ {
			scratch, _ = wire.MarshalAppend(scratch[:0], req) // req marshalled by addStages without error
		}
	})
	e.add("wire.unmarshal_ns", func(n int) {
		for i := 0; i < n; i++ {
			m, _, _ := wire.Unmarshal(frame) // frame is well-formed
			sink += uint64(m.Len)
		}
	})
	e.add("wire.checksum_ns", func(n int) {
		for i := 0; i < n; i++ {
			if wire.VerifyChecksum(frame) {
				sink++
			}
		}
	})
	ras := wire.NewReassemblerPool(pool)
	e.add("wire.reassemble_ns", func(n int) {
		for i := 0; i < n; i++ {
			for off := 0; off+wire.CacheLineSize <= len(frame); off += wire.CacheLineSize {
				if m, done, _ := ras.AddLine(0, frame[off:off+wire.CacheLineSize]); done {
					pool.Put(m.Payload)
				}
			}
		}
	})

	ring := ringbuf.New[[]byte](ringDepth)
	e.add("ringbuf.push_pop_ns", func(n int) {
		for i := 0; i < n; i++ {
			ring.Push(frame)
			b, _ := ring.Pop()
			sink += uint64(len(b))
		}
	})
	e.add("ringbuf.pool_get_put_ns", func(n int) {
		for i := 0; i < n; i++ {
			pool.Put(pool.Get(len(frame)))
		}
	})

	// dataplane: the workload's steering scheme, then the admission checks.
	in := dataplane.SteerInput{NFlows: sh.flows, ConnFlow: 0, HasConn: true}
	if sh.scheme == dataplane.SteerKeyHash {
		in.Key = mica.ExtractKey(sh.req)
	}
	e.add("dataplane.steer_ns", func(n int) {
		for i := 0; i < n; i++ {
			in.RR = uint32(i)
			sink += uint64(dataplane.Steer(sh.scheme, in))
		}
	})
	e.add("dataplane.admit_mark_ns", func(n int) {
		for i := 0; i < n; i++ {
			depth := i & 7
			if dataplane.Mark(depth, ringDepth) {
				sink += uint64(dataplane.OccupancyHint(depth, ringDepth))
			}
			if dataplane.Admit(depth, ringDepth) {
				sink++
			}
		}
	})

	// faults: what an installed but idle (zero-rate) injector costs per frame.
	inj, err := faults.NewInjector(faults.Config{Seed: 1})
	if err != nil {
		return err
	}
	e.add("faults.idle_next_ns", func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(inj.Next().Class)
		}
	})

	reg := metrics.New()
	ctr, h := reg.Counter("bench.counter"), reg.Histogram("bench.hist")
	e.add("metrics.counter_add_ns", func(n int) {
		for i := 0; i < n; i++ {
			ctr.Add(1)
		}
	})
	e.add("metrics.hist_observe_ns", func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(int64(len(frame)))
		}
	})
	return nil
}

// addConnStages adds the connection cache the statically steered (echo)
// workloads look up per frame: one resident connection, then two that evict
// each other. Key-hash steering (kvs_*) bypasses it.
func (e *stageEnv) addConnStages() {
	hit := connstate.New[uint16](fabric.DefaultConnCacheSize)
	_ = hit.Open(connstate.Key(clientAddr, 1), 0) // fresh cache: cannot be open already
	e.add("connstate.lookup_hit_ns", func(n int) {
		k := connstate.Key(clientAddr, 1)
		for i := 0; i < n; i++ {
			f, _, _ := hit.Lookup(k)
			sink += uint64(f)
		}
	})
	miss := connstate.New[uint16](2)
	_ = miss.Open(connstate.Key(clientAddr, 2), 0)
	_ = miss.Open(connstate.Key(clientAddr, 4), 1) // same slot of the 2-entry cache
	e.add("connstate.lookup_miss_ns", func(n int) {
		for i := 0; i < n; i++ {
			f, _, _ := miss.Lookup(connstate.Key(clientAddr, uint32(2+2*(i&1))))
			sink += uint64(f)
		}
	})
}

// addFabricStages adds Send -> TryRecv -> pool Put on one goroutine, so
// steering, marshalling and admission are timed without a goroutine wake-up,
// and (for the bridged workload) Inject, the way a frame enters from a peer.
func (e *stageEnv) addFabricStages(sh shape, frame []byte, bridged bool) error {
	req := e.req
	resp := &wire.Message{
		Header:  wire.Header{Kind: wire.KindResponse, ConnID: 1, RPCID: 7, FnID: fnEcho, SrcAddr: serverAddr, DstAddr: clientAddr},
		Payload: sh.resp,
	}
	fab := fabric.NewFabric()
	a, err := fab.CreateNIC(clientAddr, 1, ringDepth)
	if err != nil {
		return err
	}
	b, err := fab.CreateNIC(serverAddr, sh.flows, ringDepth)
	if err != nil {
		a.Close()
		return err
	}
	e.closers = append(e.closers, a.Close, b.Close)
	if sh.scheme == dataplane.SteerKeyHash {
		if err := b.SetBalancer(fabric.BalanceObjectLevel, mica.ExtractKey); err != nil {
			return err
		}
	}
	// Find the server flow this shape steers to (fixed: same key or conn).
	if err := a.Send(req); err != nil {
		return err
	}
	var dst *fabric.Flow
	for i := 0; i < b.NumFlows() && dst == nil; i++ {
		fl, _ := b.Flow(i) // i is in range
		if f, ok := fl.TryRecv(); ok {
			fl.Buffers().Put(f)
			dst = fl
		}
	}
	back, _ := a.Flow(0)
	e.add("metrics.snapshot_us", func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(len(b.Metrics().Snapshot().Samples))
		}
	})
	e.add("fabric.send_ns", func(n int) {
		for i := 0; i < n; i++ {
			_ = a.Send(req) // the ring is drained every iteration, so it cannot be full
			f, _ := dst.TryRecv()
			dst.Buffers().Put(f)
		}
	})
	e.add("fabric.send_resp_ns", func(n int) {
		for i := 0; i < n; i++ {
			_ = b.Send(resp)
			f, _ := back.TryRecv()
			back.Buffers().Put(f)
		}
	})
	if bridged {
		e.add("fabric.inject_ns", func(n int) {
			for i := 0; i < n; i++ {
				f := fab.Buffers().Get(len(frame))
				copy(f, frame)
				_ = fab.Inject(f)
				f, _ = dst.TryRecv()
				dst.Buffers().Put(f)
			}
		})
	}
	return nil
}

// addTransportStages adds what udp_echo puts between its two fabrics.
func (e *stageEnv) addTransportStages(frame []byte) error {
	routes := transport.NewRouteTable(
		transport.Route{Lo: 1, Hi: 9, Endpoint: "a"}, transport.Route{Lo: 10, Hi: 99, Endpoint: "b"},
		transport.Route{Lo: 100, Hi: 100, Endpoint: "c"}, transport.Route{Lo: 101, Hi: 1000, Endpoint: "d"})
	e.add("transport.route_resolve_ns", func(n int) {
		for i := 0; i < n; i++ {
			ep, _ := routes.Resolve(serverAddr)
			sink += uint64(len(ep))
		}
	})
	ma, mb := &memConn{name: "a"}, &memConn{name: "b"}
	ma.peer, mb.peer = mb, ma
	ra := transport.NewReliable(ma, transport.ReliableOptions{})
	rb := transport.NewReliable(mb, transport.ReliableOptions{})
	rb.SetHandler(func(pkt []byte, _ string) { sink += uint64(len(pkt)) })
	e.closers = append(e.closers, func() { _ = ra.Close() }, func() { _ = rb.Close() })
	e.add("transport.reliable_send_ns", func(n int) {
		for i := 0; i < n; i++ {
			_ = ra.Send("b", frame) // memConn never fails
		}
	})
	tx, err := transport.NewUDPConn("127.0.0.1:0")
	if err != nil {
		return err
	}
	e.closers = append(e.closers, func() { _ = tx.Close() })
	rx, err := transport.NewUDPConn("127.0.0.1:0")
	if err != nil {
		return err
	}
	e.closers = append(e.closers, func() { _ = rx.Close() })
	rxEP := rx.LocalEndpoint()
	e.add("transport.udp_send_ns", func(n int) {
		for i := 0; i < n; i++ {
			_ = tx.Send(rxEP, frame) // a full socket buffer drops; the send still costs its syscall
		}
	})
	return nil
}

// addKVSStages adds the codec as the MICA stubs use it (a SET request out, a
// GET reply in) and the store called directly.
func (e *stageEnv) addKVSStages() error {
	key := workload.KeyForRecord(kvDataset, 1, nil)
	val := make([]byte, kvDataset.ValueSize)
	e.add("wire.codec_encode_ns", func(n int) {
		for i := 0; i < n; i++ {
			enc := wire.NewEncoder(nil)
			enc.Bytes16(key)
			enc.Bytes16(val)
			sink += uint64(len(enc.Bytes()))
		}
	})
	reply := wire.NewEncoder(nil)
	reply.Bool(true)
	reply.Bytes16(val)
	e.add("wire.codec_decode_ns", func(n int) {
		for i := 0; i < n; i++ {
			d := wire.NewDecoder(reply.Bytes())
			if d.Bool() {
				sink += uint64(len(d.Bytes16()))
			}
		}
	})

	part := mica.NewPartition(1<<12, 8<<20)
	const stageKeys = 4096
	keys := make([][]byte, stageKeys)
	for i := range keys {
		keys[i] = workload.KeyForRecord(kvDataset, uint64(i), nil)
		if err := part.Set(keys[i], val); err != nil {
			return err
		}
	}
	e.add("kvs.mica_get_ns", func(n int) {
		for i := 0; i < n; i++ {
			v, _ := part.Get(keys[i%stageKeys])
			sink += uint64(len(v))
		}
	})
	e.add("kvs.mica_set_ns", func(n int) {
		for i := 0; i < n; i++ {
			_ = part.Set(keys[i%stageKeys], val) // sizes were accepted when populating
		}
	})
	return nil
}

// addModelStages adds the timing model's inner loops: the event engine, the
// NIC model's balancer and its connection manager.
func (e *stageEnv) addModelStages(sh shape) error {
	e.add("sim.engine_ns_per_event", func(n int) {
		eng := sim.NewEngine()
		noop := func() {}
		for i := 0; i < n; {
			for j := 0; j < 1024 && i < n; i, j = i+1, j+1 {
				eng.After(sim.Time(j&63), noop)
			}
			eng.Run()
		}
	})
	bal := nicmodel.NewBalancer(sh.scheme, 8)
	steer := nicmodel.Steer{Key: workload.KeyForRecord(kvDataset, 1, nil)}
	e.add("nicmodel.balancer_pick_ns", func(n int) {
		for i := 0; i < n; i++ {
			steer.ConnFlow = uint16(i)
			sink += uint64(bal.Pick(steer))
		}
	})
	cm := nicmodel.NewConnectionManager(1024)
	for i := uint32(1); i <= 64; i++ {
		if err := cm.Open(i, nicmodel.ConnTuple{SrcFlow: uint16(i)}); err != nil {
			return err
		}
	}
	e.add("nicmodel.conn_lookup_ns", func(n int) {
		for i := 0; i < n; i++ {
			t, _, _ := cm.Lookup(uint32(i&63) + 1)
			sink += uint64(t.SrcFlow)
		}
	})
	return nil
}

// wireAllocsPerOp counts heap allocations of one marshal + unmarshal +
// pooled reassembly round.
func wireAllocsPerOp(e *stageEnv) float64 {
	const n = 2000
	round := func(k int) {
		e.find("wire.marshal_ns")(k)
		e.find("wire.unmarshal_ns")(k)
		e.find("wire.reassemble_ns")(k)
	}
	round(n) // warm the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round(n)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}

// udpRawRTT is the floor under udp_echo: the median round trip of a bare
// net.UDPConn ping-pong on loopback, in microseconds.
func udpRawRTT(budget time.Duration, size int) (float64, error) {
	listen := func() (*net.UDPConn, error) {
		return net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	}
	ping, err := listen()
	if err != nil {
		return 0, err
	}
	defer ping.Close()
	pong, err := listen()
	if err != nil {
		return 0, err
	}
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		buf := make([]byte, size)
		for {
			n, from, err := pong.ReadFromUDP(buf)
			if err != nil {
				return // socket closed
			}
			if _, err := pong.WriteToUDP(buf[:n], from); err != nil {
				return
			}
		}
	}()
	defer func() {
		pong.Close()
		<-echoed
	}()
	var h hist
	buf := make([]byte, size)
	to := pong.LocalAddr().(*net.UDPAddr)
	for end := now() + int64(budget); now() < end; {
		t0 := now()
		if err := ping.SetReadDeadline(time.Now().Add(callTimeout)); err != nil {
			return 0, err
		}
		if _, err := ping.WriteToUDP(buf, to); err != nil {
			return 0, err
		}
		if _, _, err := ping.ReadFromUDP(buf); err != nil {
			return 0, err
		}
		h.add(now() - t0)
	}
	return h.quantile(0.5) / 1e3, nil
}

// requestPath lists, in order, the stages one RPC of the workload passes on
// its blocking path; the replay runs them once per sampled request.
func requestPath(w *workloadDef) []string {
	steer := "connstate.lookup_hit_ns"
	if w.kind == kindKVS {
		steer = "dataplane.steer_ns"
	}
	hop := func() []string {
		h := []string{"wire.marshal_ns", "ringbuf.pool_get_put_ns", "dataplane.admit_mark_ns", "metrics.counter_add_ns"}
		if w.kind == kindUDP {
			h = append(h, "transport.route_resolve_ns", "transport.reliable_send_ns", "transport.udp_send_ns", "fabric.inject_ns")
		}
		return append(h, "ringbuf.push_pop_ns", "wire.reassemble_ns")
	}
	var p []string
	if w.kind == kindKVS {
		p = append(p, "wire.codec_encode_ns")
	}
	p = append(p, steer)
	p = append(p, hop()...)
	if w.kind == kindKVS {
		p = append(p, "wire.codec_decode_ns", w.storeStage(), "wire.codec_encode_ns")
	}
	p = append(p, hop()...)
	if w.kind == kindKVS {
		p = append(p, "wire.codec_decode_ns")
	}
	return p
}

// replaySamples is how many generated requests the replay walks.
const replaySamples = 64

// replay walks sampled requests through the layers' exported functions in
// path order on one goroutine, one child span per stage under a "replay"
// root. samples are generated request payloads of the shape's size (nil
// keeps the shape's own request).
func replay(w *workloadDef, e *stageEnv, samples [][]byte) []span {
	path := requestPath(w)
	spans := make([]span, 0, replaySamples*(len(path)+1))
	for s := 0; s < replaySamples; s++ {
		root := len(spans)
		id := uint64(s + 1)
		if samples != nil {
			e.req.Payload = samples[s]
		}
		spans = append(spans, span{Name: "replay", Start: now(), Parent: -1, RPC: id})
		for _, name := range path {
			run := e.find(name)
			t0 := now()
			run(1)
			spans = append(spans, span{Name: name[:len(name)-len("_ns")], Start: t0, End: now(), Parent: root, RPC: id})
		}
		spans[root].End = now()
	}
	return spans
}
