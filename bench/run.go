package main

import (
	"fmt"
	"runtime"
	"time"

	"dagger/internal/metrics"
)

// runConfig is one measuring process: one workload, one seed, one pass.
type runConfig struct {
	workload *workloadDef
	seed     int64
	seconds  float64
	traced   bool
	// traceOut is where a traced run writes its spans ("" = nowhere).
	traceOut string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Notes say why a run is incorrect. A measuring process passes them to its
	// parent on its line; main strips them from the line the driver reads.
	Notes []string `json:"notes,omitempty"`
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: units[name]}
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

var units = unitOf()

// instance is a built workload of either substrate.
type instance struct {
	rig     *rig // nil for model_echo
	callers []caller
	model   modelNumbers // model_echo: what its pinned run yielded
}

func build(w *workloadDef, seed int64) (*instance, error) {
	if w.kind == kindModel {
		got, err := runPinned()
		if err != nil {
			return nil, err
		}
		if got != pinned {
			return nil, fmt.Errorf("timing model moved: got %+v, pinned %+v", got, pinned)
		}
		return &instance{callers: []caller{&modelCaller{seed: seed}}, model: got}, nil
	}
	r, err := buildRig(w, seed)
	if err != nil {
		return nil, err
	}
	return &instance{rig: r, callers: r.callers}, nil
}

// close tears the instance down, checks what it left behind, and returns
// the buffer-pool balance (loans never repaid; must be 0).
func (in *instance) close(res *result) int64 {
	if in.rig == nil {
		return 0
	}
	balance, cqLeft := in.rig.close()
	if balance != 0 {
		res.fail("buffer pools out of balance at teardown: gets - puts = %d", balance)
	}
	if cqLeft != 0 {
		res.fail("%d completions left unpolled at teardown", cqLeft)
	}
	return balance
}

// measure runs the instance's callers for dur and merges what they saw.
func (in *instance) measure(dur time.Duration) *measurement {
	var before, after runtime.MemStats
	var c0 counters
	if in.rig != nil {
		c0 = in.rig.counters()
	}
	runtime.ReadMemStats(&before)
	clock := &cpuClock{}
	start := now()
	clock.mark(0)
	width := int64(dur) / numWindows
	recs := runCallers(in.callers, noLimit, start, width, clock)
	runtime.ReadMemStats(&after)
	m := merge(recs, clock)
	m.mallocs = after.Mallocs - before.Mallocs
	if in.rig != nil {
		m.delta = in.rig.counters().sub(c0)
	}
	return m
}

// run executes one measuring process: one set-up, then either the untraced
// window (end-to-end metrics) or the traced pass (per-layer metrics).
func run(cfg runConfig) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	w := cfg.workload
	dur := time.Duration(cfg.seconds * float64(time.Second))

	// Set-up: everything before the timed window.
	t0 := now()
	in, err := build(w, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setup := float64(now()-t0) / 1e9

	if cfg.traced {
		return res, tracedPass(res, cfg, in, dur)
	}
	m := in.measure(dur)
	in.close(res)
	check(res, w, m)
	res.set("setup_s", setup)
	res.set("rtt_p50_us", m.p50/1e3)
	res.set("rtt_p90_us", m.p90/1e3)
	res.set("throughput_krps", m.krps)
	res.set("cpu_us_per_rpc", m.cpuPerRPC)
	return res, nil
}

// tracedPass measures an untraced reference window, then the same instance
// with the harness's spans on, then runs the stage loops and the replay.
func tracedPass(res *result, cfg runConfig, in *instance, dur time.Duration) error {
	w := cfg.workload
	for _, s := range perLayerSpecs {
		res.set(s.Name, 0) // what a workload does not exercise stays 0
	}
	part := dur * 3 / 10
	tf := &traceFile{Workload: w.name, Seed: cfg.seed, ClockOverheadNs: clockOverhead()}
	ref := in.measure(part)
	check(res, w, ref)
	var traced *measurement
	if in.rig != nil {
		traced = in.measureTraced(part, tf)
		check(res, w, traced)
	}
	res.set("ringbuf.pool_balance", float64(in.close(res)))

	env, err := newStageEnv(w, shapeOf(w, cfg.seed))
	if err != nil {
		return fmt.Errorf("stage set-up: %w", err)
	}
	defer env.close()
	budget := part / time.Duration(len(env.stages)+2)
	for _, s := range env.stages {
		v := timeStage(budget, s.run)
		if s.name == "metrics.snapshot_us" {
			v /= 1e3
		}
		res.set(s.name, v)
	}
	if w.kind == kindUDP {
		rawRTT, err := udpRawRTT(2*budget, w.payload)
		if err != nil {
			return fmt.Errorf("raw UDP ping-pong: %w", err)
		}
		res.set("transport.udp_raw_rtt_p50_us", rawRTT)
	}

	if in.rig == nil {
		res.set("nicmodel.model_mrps", in.model.mrps)
		res.set("nicmodel.model_plateau_mrps", in.model.plateauMrps)
		res.set("nicmodel.model_rtt_p50_us", in.model.rttP50us)
		res.set("nicmodel.model_rtt_p99_us", in.model.rttP99us)
		res.set("core.failed_frac", frac(ref.failed, ref.attempted))
	} else {
		var samples [][]byte
		if w.kind != kindKVS {
			samples = echoPayloads(cfg.seed, 0, w.payload)[:replaySamples]
		}
		tf.add(replay(w, env, samples))
		res.set("wire.allocs_per_op", wireAllocsPerOp(env))
		layerMetrics(res, w, ref, traced)
	}
	if cfg.traceOut == "" {
		return nil
	}
	if err := tf.write(cfg.traceOut); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// check folds a measured window's outcome into the result.
func check(res *result, w *workloadDef, m *measurement) {
	res.Attempted += m.attempted
	res.Failed += m.failed
	if m.failed != 0 {
		res.fail("%d of %d operations failed", m.failed, m.attempted)
	}
	if m.attempted == 0 || m.windows == 0 {
		res.fail("nothing measured (attempted %d, sub-windows %d)", m.attempted, m.windows)
	}
	if w.kind == kindKVS && frac(m.misses, m.attempted) >= 0.01 {
		res.fail("KVS misses reached %.2f%% of operations: the store is undersized for this run", 100*frac(m.misses, m.attempted))
	}
}

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// measureTraced runs one window with the harness's spans on.
func (in *instance) measureTraced(dur time.Duration, tf *traceFile) *measurement {
	r := in.rig
	for _, s := range r.sinks {
		s.arm()
	}
	r.st.on.Store(true)
	m := in.measure(dur)
	r.st.on.Store(false)
	for _, s := range r.sinks {
		m.reqPath.merge(&s.reqH)
		m.handler.merge(&s.hdlH)
		m.respPath.merge(&s.rspH)
		tf.add(s.spans)
	}
	return m
}

// layerMetrics derives the per-layer numbers that come from the live run:
// registry deltas over the untraced reference window, and the traced split.
func layerMetrics(res *result, w *workloadDef, ref, traced *measurement) {
	done := float64(ref.completed)
	if done == 0 {
		return
	}
	d := ref.delta
	per := func(v float64) float64 { return v / done }
	res.set("wire.lines_per_rpc", per(total(d.nics, "bytes.out"))/64)
	res.set("ringbuf.pool_gets_per_rpc", per(float64(d.poolGets)))
	if sent := total(d.nics, "rpc.out"); sent > 0 {
		res.set("fabric.drop_frac", total(d.nics, "drop.ring")/sent)
		res.set("fabric.mark_frac", total(d.nics, "mark.rx.stamped")/sent)
	}
	if look := total(d.nics, "conn.lookups"); look > 0 {
		res.set("fabric.conn_miss_frac", total(d.nics, "conn.misses")/look)
	}
	// Frames the callers' NIC sent, that is, the requests.
	if fb, ok := d.nics[0].Get("frame.bytes"); ok {
		res.set("fabric.frame_bytes_p50", float64(fb.Quantile(50)))
	}
	res.set("core.rtt_p99_us", ref.all.quantile(0.99)/1e3)
	res.set("core.rtt_p999_us", ref.all.quantile(0.999)/1e3)
	res.set("core.allocs_per_rpc", float64(ref.mallocs)/done)
	res.set("core.failed_frac", frac(ref.failed, ref.attempted))
	res.set("core.late", total(d.clients, "call.late"))
	res.set("core.timedout", total(d.clients, "call.timedout"))
	res.set("core.refused", total(d.clients, "call.refused"))
	res.set("core.shed", float64(d.server.Value("shed.expired")))
	if w.kind == kindUDP {
		res.set("transport.syscalls_per_rpc", per(float64(d.udpSent+d.udpReceived)))
		if d.udpSent > 0 {
			res.set("transport.retransmit_frac", float64(d.retransmits)/float64(d.udpSent))
			res.set("transport.dup_frac", float64(d.duplicates)/float64(d.udpSent))
		}
	}
	if w.kind == kindKVS {
		res.set("kvs.get_rtt_p50_us", ref.get.quantile(0.5)/1e3)
		res.set("kvs.set_rtt_p50_us", ref.set.quantile(0.5)/1e3)
		res.set("kvs.miss_frac", frac(ref.misses, ref.attempted))
	}

	// Where one RPC's time goes: the stage costs along its blocking path,
	// the handler, and what is left, which is hand-off and scheduler wait.
	v := func(name string) float64 { return res.Metrics[name].Value }
	path := v("fabric.send_ns") + v("fabric.send_resp_ns") + 2*v("wire.reassemble_ns")
	handler := traced.handler.quantile(0.5)
	switch w.kind {
	case kindUDP:
		// Each direction: protocol framing, a data and an ack datagram, and
		// injection into the far fabric.
		path += 2 * (v("transport.route_resolve_ns") + v("transport.reliable_send_ns") +
			2*v("transport.udp_send_ns") + v("fabric.inject_ns"))
	case kindKVS:
		// The port's handlers are the product's own closures, so their cost
		// is the sum of what they call: decode, store, encode.
		handler = v("wire.codec_decode_ns") + v(w.storeStage()) + v("wire.codec_encode_ns")
		path += v("wire.codec_encode_ns") + v("wire.codec_decode_ns")
	}
	res.set("core.path_cpu_ns", path)
	res.set("core.handler_p50_ns", handler)
	res.set("core.handoff_wait_ns", ref.p50-path-handler)
	res.set("core.request_path_p50_ns", traced.reqPath.quantile(0.5))
	res.set("core.response_path_p50_ns", traced.respPath.quantile(0.5))
	res.set("core.traced_rtt_p50_us", traced.p50/1e3)
	if ref.p50 > 0 {
		res.set("core.trace_overhead_frac", traced.p50/ref.p50-1)
	}
}

// counters is a snapshot of every registry and counter the live run reads.
type counters struct {
	nics, clients []metrics.Snapshot // nics[0] is the callers' NIC
	server        metrics.Snapshot
	poolGets      uint64
	udpSent, udpReceived,
	retransmits, duplicates uint64
}

func (r *rig) counters() counters {
	var c counters
	for _, n := range r.nics {
		c.nics = append(c.nics, n.Metrics().Snapshot())
	}
	for _, cl := range r.clients {
		c.clients = append(c.clients, cl.Metrics().Snapshot())
	}
	c.server = r.srv.Metrics().Snapshot()
	c.poolGets, _ = r.loans()
	for _, u := range r.udp {
		c.udpSent += u.Sent.Load()
		c.udpReceived += u.Received.Load()
	}
	for _, rl := range r.rel {
		c.retransmits += rl.Retransmits.Load()
		c.duplicates += rl.Duplicates.Load()
	}
	return c
}

func (c counters) sub(o counters) counters {
	d := counters{
		server:      c.server.Delta(o.server),
		poolGets:    c.poolGets - o.poolGets,
		udpSent:     c.udpSent - o.udpSent,
		udpReceived: c.udpReceived - o.udpReceived,
		retransmits: c.retransmits - o.retransmits,
		duplicates:  c.duplicates - o.duplicates,
	}
	for i := range c.nics {
		d.nics = append(d.nics, c.nics[i].Delta(o.nics[i]))
	}
	for i := range c.clients {
		d.clients = append(d.clients, c.clients[i].Delta(o.clients[i]))
	}
	return d
}

// total adds the named sample over several components' snapshots.
func total(snaps []metrics.Snapshot, name string) float64 {
	var v int64
	for _, s := range snaps {
		v += s.Value(name)
	}
	return float64(v)
}
