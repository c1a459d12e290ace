package main

import (
	"bytes"
	"encoding/json"
)

// This file is the benchmark's declaration: metrics, units, directions and
// regression bounds; the workloads are workloadDefs in rig.go. BENCHMARK.json
// at the repository root is generated from the two (`daggerperf -spec`), and
// bench_test.go fails when it disagrees.

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end metric
	// may get worse; per-layer metrics have none.
	Bound float64 `json:"bound"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is the measured length of one run. With 7 workloads the driver
// makes 158 runs; at 13.5 to 23.5 s each (build check, runProcs set-ups, 12 s
// measured; about 2500 s in all) they fit its 3420 s budget with room for two
// cold builds.
const runSeconds = 12

// endToEndSpecs are reported by every workload in an untraced run. On the
// functional workloads an RPC is a verified round trip; on model_echo it is
// one simulated RPC and the times are host time spent simulating it.
//
// Bounds are the issue's 10 % where this host lets two suites of the same
// code agree that closely, and wider where it does not. Over two ten-seed
// suites (README, "Steadiness") the run-to-run spread (interquartile distance
// over median) reached 5.1 % on rtt_p50, 12.8 % on rtt_p90, 7.2 % on
// throughput and 8.5 % on CPU, and the suites' medians differed by up to 5 %,
// 13 %, 8 % and 9 %: rtt_p50 keeps 10 %, throughput and CPU get 15 %, rtt_p90
// the contract's cap. The width is the host's, not the harness's: whole runs
// of the memory-heavy kvs_* workloads land 5 to 30 % off for tens of seconds
// with no steal time or other process showing in the guest.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"rtt_p50_us", "us", lower, 0.10},
	{"rtt_p90_us", "us", lower, 0.25},
	{"throughput_krps", "krps", higher, 0.15},
	{"cpu_us_per_rpc", "us", lower, 0.15},
}

// perLayerSpecs are reported by every workload in a traced run; a metric a
// workload does not exercise reads 0 there (bench/README.md lists which).
var perLayerSpecs = []metricSpec{
	{Name: "wire.marshal_ns", Unit: "ns", Better: lower},
	{Name: "wire.unmarshal_ns", Unit: "ns", Better: lower},
	{Name: "wire.checksum_ns", Unit: "ns", Better: lower},
	{Name: "wire.reassemble_ns", Unit: "ns", Better: lower},
	{Name: "wire.codec_encode_ns", Unit: "ns", Better: lower},
	{Name: "wire.codec_decode_ns", Unit: "ns", Better: lower},
	{Name: "wire.lines_per_rpc", Unit: "count", Better: lower},
	{Name: "wire.allocs_per_op", Unit: "count", Better: lower},

	{Name: "ringbuf.push_pop_ns", Unit: "ns", Better: lower},
	{Name: "ringbuf.pool_get_put_ns", Unit: "ns", Better: lower},
	{Name: "ringbuf.pool_gets_per_rpc", Unit: "count", Better: lower},
	{Name: "ringbuf.pool_balance", Unit: "count", Better: lower},

	{Name: "connstate.lookup_hit_ns", Unit: "ns", Better: lower},
	{Name: "connstate.lookup_miss_ns", Unit: "ns", Better: lower},

	{Name: "dataplane.steer_ns", Unit: "ns", Better: lower},
	{Name: "dataplane.admit_mark_ns", Unit: "ns", Better: lower},

	{Name: "faults.idle_next_ns", Unit: "ns", Better: lower},

	{Name: "metrics.counter_add_ns", Unit: "ns", Better: lower},
	{Name: "metrics.hist_observe_ns", Unit: "ns", Better: lower},
	{Name: "metrics.snapshot_us", Unit: "us", Better: lower},

	{Name: "fabric.send_ns", Unit: "ns", Better: lower},
	{Name: "fabric.send_resp_ns", Unit: "ns", Better: lower},
	{Name: "fabric.inject_ns", Unit: "ns", Better: lower},
	{Name: "fabric.drop_frac", Unit: "ratio", Better: lower},
	{Name: "fabric.mark_frac", Unit: "ratio", Better: lower},
	{Name: "fabric.conn_miss_frac", Unit: "ratio", Better: lower},
	{Name: "fabric.frame_bytes_p50", Unit: "bytes", Better: lower},

	{Name: "core.rtt_p99_us", Unit: "us", Better: lower},
	{Name: "core.rtt_p999_us", Unit: "us", Better: lower},
	{Name: "core.request_path_p50_ns", Unit: "ns", Better: lower},
	{Name: "core.handler_p50_ns", Unit: "ns", Better: lower},
	{Name: "core.response_path_p50_ns", Unit: "ns", Better: lower},
	{Name: "core.traced_rtt_p50_us", Unit: "us", Better: lower},
	{Name: "core.path_cpu_ns", Unit: "ns", Better: lower},
	{Name: "core.handoff_wait_ns", Unit: "ns", Better: lower},
	{Name: "core.allocs_per_rpc", Unit: "count", Better: lower},
	{Name: "core.failed_frac", Unit: "ratio", Better: lower},
	{Name: "core.late", Unit: "count", Better: lower},
	{Name: "core.timedout", Unit: "count", Better: lower},
	{Name: "core.refused", Unit: "count", Better: lower},
	{Name: "core.shed", Unit: "count", Better: lower},
	{Name: "core.trace_overhead_frac", Unit: "ratio", Better: lower},

	{Name: "transport.udp_send_ns", Unit: "ns", Better: lower},
	{Name: "transport.udp_raw_rtt_p50_us", Unit: "us", Better: lower},
	{Name: "transport.reliable_send_ns", Unit: "ns", Better: lower},
	{Name: "transport.route_resolve_ns", Unit: "ns", Better: lower},
	{Name: "transport.syscalls_per_rpc", Unit: "count", Better: lower},
	{Name: "transport.retransmit_frac", Unit: "ratio", Better: lower},
	{Name: "transport.dup_frac", Unit: "ratio", Better: lower},

	{Name: "kvs.mica_get_ns", Unit: "ns", Better: lower},
	{Name: "kvs.mica_set_ns", Unit: "ns", Better: lower},
	{Name: "kvs.get_rtt_p50_us", Unit: "us", Better: lower},
	{Name: "kvs.set_rtt_p50_us", Unit: "us", Better: lower},
	{Name: "kvs.miss_frac", Unit: "ratio", Better: lower},

	{Name: "sim.engine_ns_per_event", Unit: "ns", Better: lower},
	{Name: "nicmodel.balancer_pick_ns", Unit: "ns", Better: lower},
	{Name: "nicmodel.conn_lookup_ns", Unit: "ns", Better: lower},
	// The timing model's paper numbers, in simulated (not wall) units. They
	// are deterministic; model_echo also checks them bit-exact.
	{Name: "nicmodel.model_mrps", Unit: "sim_Mrps", Better: higher},
	{Name: "nicmodel.model_plateau_mrps", Unit: "sim_Mrps", Better: higher},
	{Name: "nicmodel.model_rtt_p50_us", Unit: "sim_us", Better: lower},
	{Name: "nicmodel.model_rtt_p99_us", Unit: "sim_us", Better: lower},
}

// benchmarkJSON renders BENCHMARK.json.
func benchmarkJSON() []byte {
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []workload   `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []layer      `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndSpecs,
	}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, workload{w.name, w.why})
	}
	for _, m := range perLayerSpecs {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err) // the document is static; failure is a bug
	}
	return buf.Bytes()
}

// unitOf maps every declared metric name to its unit.
func unitOf() map[string]string {
	u := make(map[string]string, len(endToEndSpecs)+len(perLayerSpecs))
	for _, m := range endToEndSpecs {
		u[m.Name] = m.Unit
	}
	for _, m := range perLayerSpecs {
		u[m.Name] = m.Unit
	}
	return u
}
