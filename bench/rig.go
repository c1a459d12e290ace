package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dagger/internal/core"
	"dagger/internal/fabric"
	"dagger/internal/kvs/mica"
	"dagger/internal/ringbuf"
	"dagger/internal/transport"
	"dagger/internal/workload"
)

type workloadKind int

const (
	kindEchoSync workloadKind = iota
	kindEchoPipelined
	kindKVS
	kindUDP
	kindModel
)

// workloadDef is one workload: its fixed shape (the seed fills in the bytes)
// and why it exists. BENCHMARK.json's workload list is generated from this
// slice, so a workload is declared once.
type workloadDef struct {
	name        string
	why         string // one line, at most 200 characters
	kind        workloadKind
	payload     int     // echo payload bytes
	callers     int     // closed-loop caller goroutines, one RpcClient each
	serverFlows int     // server NIC flows (= dispatch threads = partitions)
	getPct      float64 // KVS read share
	warmup      int     // operations per caller before the timed window
}

var workloadDefs = []*workloadDef{
	{name: "echo_sync", kind: kindEchoSync, payload: 32, callers: 1, serverFlows: 1, warmup: 40_000,
		why: "in-process fabric, 1 closed-loop caller, 32 B echo: the smallest frame, so RTT is ring hand-off, goroutine wake-ups and per-frame planes (Table 3 analogue)"},
	{name: "echo_pipelined", kind: kindEchoPipelined, payload: 32, callers: 1, serverFlows: 1, warmup: 80_000,
		why: "same path, one issuer keeps 32 CallAsync outstanding: wake-ups amortise, so per-frame CPU sets throughput; ring-drain batching shows here, not on echo_sync"},
	{name: "echo_large", kind: kindEchoSync, payload: 4096, callers: 1, serverFlows: 1, warmup: 15_000,
		why: "echo_sync with a 4096 B payload (65 cache lines): per-byte work (copy, reassembly, largest pool class); a per-frame saving barely moves it"},
	{name: "kvs_read95", kind: kindKVS, callers: 1, serverFlows: 2, getPct: 0.95, warmup: 40_000,
		why: "MICA port, key-hash steering, 2 partitions, 100k records, Zipf 0.99, 95% GET, 1 caller: stubs, wire codec and store dominate; bypasses the conn-cache path"},
	{name: "kvs_write50", kind: kindKVS, callers: 1, serverFlows: 2, getPct: 0.50, warmup: 40_000,
		why: "same store and keys at 50% SET: values travel out instead of back and the log append runs, so a read-only codec or store gain that costs writes shows"},
	{name: "udp_echo", kind: kindUDP, payload: 64, callers: 2, serverFlows: 2, warmup: 3_000,
		why: "two fabrics joined by Bridge+Reliable over real UDP sockets on 127.0.0.1 (kernel loopback, not a link), 2 closed-loop callers, 64 B: syscall-bound cross-host path"},
	{name: "model_echo", kind: kindModel,
		why: "timing model (experiments.RunEcho) at the Table 3 / Fig. 11 configs: paper numbers checked bit-exact, simulator host speed measured; functional changes predict no move"},
}

// storeStage names the store operation that stands for a KVS workload in
// the stage loops and the replay: its more common one.
func (w *workloadDef) storeStage() string {
	if w.getPct > 0.5 {
		return "kvs.mica_get_ns"
	}
	return "kvs.mica_set_ns"
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloadDefs {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	clientAddr uint32 = 1
	serverAddr uint32 = 100
	fnEcho     uint16 = 0
	ringDepth         = 1024
	// callTimeout bounds every call, so a lost frame becomes a failure
	// instead of a stuck benchmark.
	callTimeout = 2 * time.Second
	// pipelineWindow is echo_pipelined's number of outstanding CallAsync.
	pipelineWindow = 32
)

// MICA store geometry: 2^15 8-way buckets per partition keep lossy-index
// displacement of 50k records per partition far below 1 %, and a 64 MiB log
// per partition holds every SET of a run several times run_seconds long
// without wrapping over live records.
const (
	micaBuckets  = 1 << 15
	micaLogBytes = 64 << 20
)

// stamps is where the benchmark's own echo handler leaves its entry and exit
// times during a traced window, in a slot chosen by the request id carried in
// the payload. They are atomics because on udp_echo the only thing ordering
// the handler's write before the caller's read is a socket.
type stamps struct {
	on    atomic.Bool
	enter [stampSlots]atomic.Int64
	leave [stampSlots]atomic.Int64
}

// A request id is the caller's sequence number above the caller's index in
// the low byte. Callers never share a slot, and a caller reuses one only
// after stampSlots/maxCallers further requests, far more than it ever has
// outstanding.
const (
	stampSlots = 1 << 12
	maxCallers = 4
)

func stampSlot(id uint64) uint64 {
	return (id>>8)%(stampSlots/maxCallers)*maxCallers + id&0xff%maxCallers
}

func (s *stamps) handler(_ context.Context, req []byte) ([]byte, error) {
	if s.on.Load() && len(req) >= bodyOff {
		i := stampSlot(binary.LittleEndian.Uint64(req[idOff:]))
		s.enter[i].Store(now())
		s.leave[i].Store(now())
	}
	return req, nil
}

// rig is one built workload: fabric(s), NICs, server, clients, callers.
type rig struct {
	w       *workloadDef
	fabrics []*fabric.Fabric
	nics    []*fabric.SoftNIC
	srv     *core.RpcThreadedServer
	clients []*core.RpcClient
	callers []caller
	store   *mica.Store
	udp     []*transport.UDPConn
	rel     []*transport.Reliable
	bridges []*transport.Bridge
	st      *stamps
	sinks   []*traceSink // one per echo caller
	kv      *kvCaller    // KVS workloads: the one caller
}

// caller is one closed-loop request generator.
type caller interface {
	// run issues operations until limit of them completed or the recorder's
	// window ended.
	run(limit int, rec *recorder)
}

func buildRig(w *workloadDef, seed int64) (*rig, error) {
	r := &rig{w: w, st: &stamps{}}
	if err := r.build(seed); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) build(seed int64) error {
	w := r.w
	cfab := fabric.NewFabric()
	sfab := cfab
	r.fabrics = []*fabric.Fabric{cfab}
	if w.kind == kindUDP {
		sfab = fabric.NewFabric()
		r.fabrics = append(r.fabrics, sfab)
		if err := r.joinOverUDP(cfab, sfab); err != nil {
			return err
		}
	}
	cnic, err := cfab.CreateNIC(clientAddr, w.callers, ringDepth)
	if err != nil {
		return err
	}
	snic, err := sfab.CreateNIC(serverAddr, w.serverFlows, ringDepth)
	if err != nil {
		return err
	}
	r.nics = []*fabric.SoftNIC{cnic, snic}

	if w.kind == kindKVS {
		r.store = mica.NewStore(w.serverFlows, micaBuckets, micaLogBytes)
		if r.srv, err = mica.Serve(snic, r.store, core.ServerConfig{}); err != nil {
			return err
		}
	} else {
		r.srv = core.NewRpcThreadedServer(snic, core.ServerConfig{})
		if err := r.srv.Register(fnEcho, "bench.echo", r.st.handler); err != nil {
			return err
		}
		if err := r.srv.Start(); err != nil {
			return err
		}
	}

	for i := 0; i < w.callers; i++ {
		c, err := core.NewRpcClient(cnic, i)
		if err != nil {
			return err
		}
		r.clients = append(r.clients, c)
		c.SetTimeout(callTimeout)
		if _, err := c.OpenConnection(serverAddr); err != nil {
			return err
		}
		switch w.kind {
		case kindEchoPipelined:
			pc := newPipelinedCaller(c, r.st, echoPayloads(seed, i, w.payload))
			r.callers = append(r.callers, pc)
			r.sinks = append(r.sinks, &pc.sink)
		case kindKVS:
			if r.kv, err = newKVCaller(c, r.store, seed, w.getPct); err != nil {
				return err
			}
			r.callers = append(r.callers, r.kv)
		default:
			sc := &syncCaller{cli: c, index: uint64(i), sink: traceSink{st: r.st}, payloads: echoPayloads(seed, i, w.payload)}
			r.callers = append(r.callers, sc)
			r.sinks = append(r.sinks, &sc.sink)
		}
	}
	r.warm()
	return nil
}

// joinOverUDP bridges the two fabrics with Reliable over real loopback
// sockets, both endpoints hosted by this process.
func (r *rig) joinOverUDP(cfab, sfab *fabric.Fabric) error {
	for i := 0; i < 2; i++ {
		u, err := transport.NewUDPConn("127.0.0.1:0")
		if err != nil {
			return err
		}
		r.udp = append(r.udp, u)
		r.rel = append(r.rel, transport.NewReliable(u, transport.ReliableOptions{}))
	}
	toServer := transport.NewRouteTable(transport.Route{Lo: serverAddr, Hi: serverAddr, Endpoint: r.udp[1].LocalEndpoint()})
	toClient := transport.NewRouteTable(transport.Route{Lo: clientAddr, Hi: clientAddr, Endpoint: r.udp[0].LocalEndpoint()})
	r.bridges = []*transport.Bridge{
		transport.NewBridge(cfab, r.rel[0], toServer),
		transport.NewBridge(sfab, r.rel[1], toClient),
	}
	return nil
}

// warm runs each caller's warm-up operations, unrecorded.
func (r *rig) warm() {
	start := now()
	runCallers(r.callers, r.w.warmup, start, int64(time.Hour), &cpuClock{})
}

// noLimit lets a caller run until its recorder's window ends.
const noLimit = int(^uint(0) >> 1)

// runCallers runs every caller concurrently against fresh recorders.
func runCallers(callers []caller, limit int, start, width int64, clock *cpuClock) []*recorder {
	recs := make([]*recorder, len(callers))
	var wg sync.WaitGroup
	for i, c := range callers {
		recs[i] = newRecorder(start, width, clock)
		wg.Add(1)
		go func(c caller, rec *recorder) {
			defer wg.Done()
			c.run(limit, rec)
		}(c, recs[i])
	}
	wg.Wait()
	return recs
}

// loans sums buffer loans over every pool of the rig: buffers migrate between
// pools (a frame drawn from the fabric pool is repaid to a flow pool), so only
// the total balances.
func (r *rig) loans() (gets, puts uint64) {
	add := func(p *ringbuf.BufPool) {
		g, q := p.Loans()
		gets += g
		puts += q
	}
	for _, f := range r.fabrics {
		add(f.Buffers())
	}
	for _, n := range r.nics {
		for i := 0; i < n.NumFlows(); i++ {
			fl, _ := n.Flow(i) // i is in range
			add(fl.Buffers())
		}
	}
	return gets, puts
}

// close stops everything and reports what was left behind: unreturned
// buffer loans beyond those a product stub kept, and unpolled completions.
func (r *rig) close() (poolBalance int64, cqLeft int) {
	for _, c := range r.clients {
		cqLeft += c.CompletionQueue().Len()
		c.Close()
	}
	if r.srv != nil {
		r.srv.Stop()
	}
	for _, b := range r.bridges {
		_ = b.Close() // closes the Reliable and its socket; nothing to recover from on teardown
	}
	for _, n := range r.nics {
		n.Close()
	}
	gets, puts := r.loans()
	poolBalance = int64(gets) - int64(puts)
	if r.kv != nil {
		// mica.Client copies the value out and drops the reply buffer, so
		// each of its calls legitimately keeps one loan.
		poolBalance -= int64(r.kv.replies)
	}
	return poolBalance, cqLeft
}

// populate pre-loads every record straight into the store (the server is
// idle; the first RPC's ring hand-off publishes these writes to it).
func populate(store *mica.Store, seed int64, expect []byte) error {
	key := make([]byte, kvDataset.KeySize)
	for rec := uint32(0); rec < kvRecords; rec++ {
		val := expect[int(rec)*kvDataset.ValueSize : int(rec+1)*kvDataset.ValueSize]
		kvInitialValue(seed, rec, val)
		if err := store.Set(workload.KeyForRecord(kvDataset, uint64(rec), key), val); err != nil {
			return fmt.Errorf("populate record %d: %w", rec, err)
		}
	}
	return nil
}
