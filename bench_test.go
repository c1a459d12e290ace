package dagger_test

// One benchmark per table and figure of the paper's evaluation (§5), plus
// ablation benches for the design decisions DESIGN.md calls out. Each
// benchmark runs the corresponding experiment and reports the headline
// quantity as a custom metric, so `go test -bench=. -benchmem` regenerates
// the paper's rows as benchmark output.

import (
	"io"
	"testing"

	"dagger/internal/dataplane"
	"dagger/internal/experiments"
	"dagger/internal/fabric"
	"dagger/internal/flight"
	"dagger/internal/interconnect"
	"dagger/internal/kvs/mica"
	"dagger/internal/microsim"
	"dagger/internal/nicmodel"
	"dagger/internal/sim"
	"dagger/internal/wire"
	"dagger/internal/workload"
)

// BenchmarkFig3SocialNetworkBreakdown regenerates Figure 3: networking as a
// fraction of median and tail latency across Social Network tiers.
func BenchmarkFig3SocialNetworkBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := microsim.Run(microsim.RunConfig{
			Graph: microsim.SocialNetwork(), QPS: 600,
			Requests: 2000, Seed: 42, Mode: microsim.SharedCores,
		})
		b.ReportMetric(100*res.E2E.NetFrac(50), "e2e-net-med-%")
		b.ReportMetric(100*res.E2E.NetFrac(99), "e2e-net-p99-%")
	}
}

// BenchmarkFig4RPCSizeCDF regenerates Figure 4: the RPC size distribution.
func BenchmarkFig4RPCSizeCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunFig4(io.Discard, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Interference regenerates Figure 5: shared vs isolated cores.
func BenchmarkFig5Interference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sh := microsim.Run(microsim.RunConfig{
			Graph: microsim.SocialNetwork(), QPS: 600,
			Requests: 2000, Seed: 23, Mode: microsim.SharedCores,
		})
		iso := microsim.Run(microsim.RunConfig{
			Graph: microsim.SocialNetwork(), QPS: 600,
			Requests: 2000, Seed: 23, Mode: microsim.IsolatedNetworking,
		})
		b.ReportMetric(float64(sh.E2E.Total.Percentile(99))/float64(iso.E2E.Total.Percentile(99)), "tail-inflation-x")
	}
}

// BenchmarkTable3Comparison regenerates Table 3's Dagger row.
func BenchmarkTable3Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sat := experiments.RunEcho(experiments.EchoConfig{
			Iface:    interconnect.Config{Kind: interconnect.UPI, Batch: 4},
			Requests: 60_000, ToR: true, Seed: 1,
		})
		lat := experiments.RunEcho(experiments.EchoConfig{
			Iface:      interconnect.Config{Kind: interconnect.UPI, Batch: 1},
			OfferedRPS: 2e6, Requests: 40_000, ToR: true, Seed: 2,
		})
		b.ReportMetric(sat.Mrps(), "Mrps")
		b.ReportMetric(lat.MedianUs(), "rtt-us")
	}
}

// BenchmarkFig10Interfaces regenerates Figure 10: one sub-benchmark per
// CPU-NIC interface variant.
func BenchmarkFig10Interfaces(b *testing.B) {
	for _, cfg := range interconnect.Fig10Configs() {
		cfg := cfg
		b.Run(cfg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sat := experiments.RunEcho(experiments.EchoConfig{Iface: cfg, Requests: 60_000, Seed: 1})
				lat := experiments.RunEcho(experiments.EchoConfig{
					Iface: cfg, OfferedRPS: 0.85 * sat.ThroughputRPS, Requests: 60_000, Seed: 2,
				})
				b.ReportMetric(sat.Mrps(), "Mrps")
				b.ReportMetric(lat.MedianUs(), "med-us")
				b.ReportMetric(lat.P99Us(), "p99-us")
			}
		})
	}
}

// BenchmarkFig11LatencyThroughput regenerates Figure 11 (left) at the B=4
// knee point.
func BenchmarkFig11LatencyThroughput(b *testing.B) {
	for _, batch := range []int{1, 2, 4} {
		cfg := interconnect.Config{Kind: interconnect.UPI, Batch: batch}
		b.Run(cfg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.RunEcho(experiments.EchoConfig{
					Iface: cfg, OfferedRPS: 0.9 * cfg.SaturationRPS(), Requests: 60_000, Seed: 3,
				})
				b.ReportMetric(r.Mrps(), "Mrps")
				b.ReportMetric(r.MedianUs(), "med-us")
			}
		})
	}
}

// BenchmarkFig11ThreadScaling regenerates Figure 11 (right).
func BenchmarkFig11ThreadScaling(b *testing.B) {
	upi4 := interconnect.Config{Kind: interconnect.UPI, Batch: 4}
	for _, th := range []int{1, 2, 4, 8} {
		th := th
		b.Run(map[int]string{1: "threads-1", 2: "threads-2", 4: "threads-4", 8: "threads-8"}[th], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e2e := experiments.RunEcho(experiments.EchoConfig{Iface: upi4, Threads: th, Requests: 100_000, Seed: 4})
				raw := experiments.RunRawReads(th, 200_000)
				b.ReportMetric(e2e.Mrps(), "e2e-Mrps")
				b.ReportMetric(raw.ThroughputRPS/1e6, "raw-Mrps")
			}
		})
	}
}

// BenchmarkFig12KVS regenerates Figure 12: one sub-benchmark per KVS cell.
func BenchmarkFig12KVS(b *testing.B) {
	for _, cell := range experiments.Fig12Cells() {
		cell := cell
		cell.Requests = 40_000
		cell.Populate = 50_000
		b.Run(cell.System.String()+"-"+cell.Dataset.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sat := experiments.RunKVS(cell)
				lat := cell
				lat.OfferedRPS = 0.5 * sat.ThroughputRPS
				latRes := experiments.RunKVS(lat)
				b.ReportMetric(sat.Mrps(), "Mrps")
				b.ReportMetric(latRes.MedianUs(), "med-us")
				b.ReportMetric(latRes.P99Us(), "p99-us")
			}
		})
	}
}

// BenchmarkTable4FlightThreading regenerates Table 4.
func BenchmarkTable4FlightThreading(b *testing.B) {
	for _, th := range []flight.Threading{flight.Simple, flight.Optimized} {
		th := th
		b.Run(th.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := flight.RunModel(flight.ModelConfig{
					Threading: th, LoadRPS: 1000, Requests: 10_000, Seed: 4,
				})
				b.ReportMetric(float64(res.Latency.Percentile(50))/1e3, "med-us")
				b.ReportMetric(float64(res.Latency.Percentile(99))/1e3, "p99-us")
			}
		})
	}
}

// BenchmarkFig15FlightCurve regenerates Figure 15 around the knee.
func BenchmarkFig15FlightCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pre := flight.RunModel(flight.ModelConfig{Threading: flight.Optimized, LoadRPS: 20_000, Requests: 20_000, Seed: 7})
		post := flight.RunModel(flight.ModelConfig{Threading: flight.Optimized, LoadRPS: 45_000, Requests: 20_000, Seed: 7})
		b.ReportMetric(float64(pre.Latency.Percentile(99))/1e3, "pre-knee-p99-us")
		b.ReportMetric(float64(post.Latency.Percentile(99))/1e3, "post-knee-p99-us")
	}
}

// ===== Ablations (DESIGN.md §5) =====

// BenchmarkAblationLoadBalancers compares the NIC's steering schemes.
func BenchmarkAblationLoadBalancers(b *testing.B) {
	for _, kind := range []dataplane.Scheme{
		dataplane.SteerUniform, dataplane.SteerStatic, dataplane.SteerKeyHash,
	} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			bal := nicmodel.NewBalancer(kind, 8)
			key := []byte("hot-key")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bal.Pick(nicmodel.Steer{ConnFlow: uint16(i), Key: key})
			}
		})
	}
}

// BenchmarkAblationConnCache measures connection-cache behaviour under
// working sets that fit vs overflow the direct-mapped cache.
func BenchmarkAblationConnCache(b *testing.B) {
	for _, tc := range []struct {
		name  string
		conns int
	}{{"fits-64", 48}, {"conflicts-64", 256}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			cm := nicmodel.NewConnectionManager(64)
			for i := 0; i < tc.conns; i++ {
				if err := cm.Open(uint32(i), nicmodel.ConnTuple{SrcFlow: uint16(i)}); err != nil {
					b.Fatal(err)
				}
			}
			var penalty sim.Time
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, p, err := cm.Lookup(uint32(i % tc.conns))
				if err != nil {
					b.Fatal(err)
				}
				penalty += p
			}
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(penalty)/float64(b.N), "miss-penalty-ns/op")
				b.ReportMetric(100*cm.HitRate(), "hit-%")
			}
		})
	}
}

// BenchmarkAblationHCC measures host-coherent-cache behaviour for resident
// vs thrashing working sets.
func BenchmarkAblationHCC(b *testing.B) {
	for _, tc := range []struct {
		name   string
		footpr uint64
	}{{"resident-64KB", 64 << 10}, {"thrash-1MB", 1 << 20}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			h := nicmodel.NewHCC()
			var penalty sim.Time
			for i := 0; i < b.N; i++ {
				penalty += h.Access(uint64(i*64) % tc.footpr)
			}
			if b.N > 0 {
				b.ReportMetric(float64(penalty)/float64(b.N), "miss-penalty-ns/op")
			}
		})
	}
}

// BenchmarkAblationBatchWidth sweeps the soft-configured CCI-P batch width.
func BenchmarkAblationBatchWidth(b *testing.B) {
	for _, batch := range []int{1, 2, 4, 8} {
		cfg := interconnect.Config{Kind: interconnect.UPI, Batch: batch}
		b.Run(cfg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sat := experiments.RunEcho(experiments.EchoConfig{Iface: cfg, Requests: 50_000, Seed: 5})
				b.ReportMetric(sat.Mrps(), "Mrps")
			}
		})
	}
}

// ===== Functional-stack micro-benchmarks (real goroutines, wall clock) ====

// BenchmarkFunctionalEchoRPC measures the real Go stack's round-trip cost.
// Like core's BenchmarkSendRecvAllocs it warms the free lists and releases
// every reply, so it reports the stack's 0 allocs/op (the ledger's
// core.allocs_per_rpc) rather than the cost of leaking the reply to the GC.
func BenchmarkFunctionalEchoRPC(b *testing.B) {
	fab := fabric.NewFabric()
	cnic, _ := fab.CreateNIC(1, 1, 1024)
	snic, _ := fab.CreateNIC(2, 1, 1024)
	srv := newEchoServer(b, snic)
	defer srv.stop()
	cli := newClient(b, cnic, 2)
	defer cli.close()
	payload := make([]byte, 32)
	echo := func() {
		resp, err := cli.call(0, payload)
		if err != nil {
			b.Fatal(err)
		}
		cli.rc.Release(resp)
	}
	for i := 0; i < 200; i++ {
		echo()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		echo()
	}
}

// BenchmarkFunctionalMICAGet measures the real MICA port's GET path.
func BenchmarkFunctionalMICAGet(b *testing.B) {
	fab := fabric.NewFabric()
	cnic, _ := fab.CreateNIC(1, 1, 1024)
	snic, _ := fab.CreateNIC(2, 4, 1024)
	store := mica.NewStore(4, 1<<12, 1<<22)
	srv, err := mica.Serve(snic, store, serverCfg())
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Stop()
	cli := newClient(b, cnic, 2)
	defer cli.close()
	mc := mica.NewClient(cli.rc)
	key := workload.KeyForRecord(workload.Tiny, 1, nil)
	if err := mc.Set(key, []byte("benchval")); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireMarshal measures the frame codec.
func BenchmarkWireMarshal(b *testing.B) {
	m := &wire.Message{
		Header:  wire.Header{Kind: wire.KindRequest, ConnID: 1, RPCID: 2, FnID: 3},
		Payload: make([]byte, 24),
	}
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		var err error
		buf, err = wire.MarshalAppend(buf, m)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := wire.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
