package experiments

import (
	"fmt"
	"io"
	"sort"

	"dagger/internal/baseline"
	"dagger/internal/flight"
	"dagger/internal/interconnect"
	"dagger/internal/microsim"
	"dagger/internal/nicmodel"
	"dagger/internal/stats"
	"dagger/internal/trace"
	"dagger/internal/workload"
)

// Runner executes one experiment and writes the paper-style rows to w.
type Runner func(w io.Writer, quick bool) error

// Registry maps experiment ids (table/figure numbers) to runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig3":          RunFig3,
		"fig4":          RunFig4,
		"fig5":          RunFig5,
		"table1":        RunTable1,
		"table3":        RunTable3,
		"fig10":         RunFig10,
		"fig11-latency": RunFig11Latency,
		"fig11-scale":   RunFig11Scale,
		"fig12":         RunFig12,
		"fig12-skew":    RunFig12Skew,
		"table4":        RunTable4,
		"fig14-virt":    RunFig14,
		"ablations":     RunAblations,
		"fig15":         RunFig15,
		"raw-read":      RunRawReadCompare,
		"overload":      RunOverload,
		"congestion":    RunCongestion,
		"connscale":     RunConnScale,
		"chaos":         RunChaos,
	}
}

// IDs returns the registered experiment ids in stable order.
func IDs() []string {
	r := Registry()
	ids := make([]string, 0, len(r))
	for id := range r {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func reqs(quick bool, full int) int {
	if quick {
		return full / 10
	}
	return full
}

// RunFig3 regenerates Figure 3: networking share of median and tail latency
// per Social Network tier as load grows.
func RunFig3(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "Figure 3: networking fraction of median / p99 latency (Social Network)")
	tiers := []string{
		microsim.TierMedia, microsim.TierUser, microsim.TierUniqueID,
		microsim.TierText, microsim.TierUserMention, microsim.TierUrlShorten,
	}
	labels := []string{"s1", "s2", "s3", "s4", "s5", "s6"}
	fmt.Fprintf(w, "%-6s", "QPS")
	for _, l := range labels {
		fmt.Fprintf(w, " %12s", l)
	}
	fmt.Fprintf(w, " %12s\n", "e2e")
	for _, qps := range []float64{200, 400, 600, 800} {
		res := microsim.Run(microsim.RunConfig{
			Graph: microsim.SocialNetwork(), QPS: qps,
			Requests: reqs(quick, 4000), Seed: 42, Mode: microsim.SharedCores,
		})
		fmt.Fprintf(w, "%-6.0f", qps)
		for _, tier := range tiers {
			ts := res.PerTier[tier]
			fmt.Fprintf(w, "  %4.0f%%/%4.0f%%", 100*ts.NetFrac(50), 100*ts.NetFrac(99))
		}
		fmt.Fprintf(w, "  %4.0f%%/%4.0f%%\n", 100*res.E2E.NetFrac(50), 100*res.E2E.NetFrac(99))
	}
	fmt.Fprintln(w, "(median%/p99% networking share; s1=Media s2=User s3=UniqueID s4=Text s5=UserMention s6=UrlShorten)")
	return nil
}

// RunFig4 regenerates Figure 4: the CDF of RPC sizes plus per-service
// breakdowns for Social Network and Media.
func RunFig4(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "Figure 4: RPC request/response size distribution")
	for _, g := range []*microsim.Graph{microsim.SocialNetwork(), microsim.MediaServing()} {
		res := microsim.Run(microsim.RunConfig{
			Graph: g, QPS: 200, Requests: reqs(quick, 4000), Seed: 17,
		})
		req := stats.NewCDF(res.AllReqSizes())
		rsp := stats.NewCDF(res.AllRspSizes())
		fmt.Fprintf(w, "%s:\n", g.Name)
		fmt.Fprintf(w, "  requests:  P(<=64B)=%.2f P(<=512B)=%.2f P(<=1KB)=%.2f median=%dB\n",
			req.At(64), req.At(512), req.At(1024), req.Quantile(0.5))
		fmt.Fprintf(w, "  responses: P(<=64B)=%.2f P(<=512B)=%.2f median=%dB\n",
			rsp.At(64), rsp.At(512), rsp.Quantile(0.5))
		if g.Name == "social-network" {
			for _, tier := range []string{
				microsim.TierMedia, microsim.TierUser, microsim.TierUniqueID,
				microsim.TierText, microsim.TierUserMention, microsim.TierUrlShorten,
			} {
				c := stats.NewCDF(res.ReqSizes[tier])
				fmt.Fprintf(w, "  %-12s median req = %4dB, P(<=64B) = %.2f\n",
					tier, c.Quantile(0.5), c.At(64))
			}
		}
	}
	return nil
}

// RunFig5 regenerates Figure 5: end-to-end latency with networking isolated
// on separate cores vs sharing cores with application logic.
func RunFig5(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "Figure 5: CPU interference between networking and application logic")
	fmt.Fprintf(w, "%-6s %14s %14s %14s %14s\n", "QPS",
		"iso med(us)", "iso p99(us)", "shared med(us)", "shared p99(us)")
	for _, qps := range []float64{200, 400, 600, 800} {
		iso := microsim.Run(microsim.RunConfig{
			Graph: microsim.SocialNetwork(), QPS: qps,
			Requests: reqs(quick, 4000), Seed: 23, Mode: microsim.IsolatedNetworking,
		})
		sh := microsim.Run(microsim.RunConfig{
			Graph: microsim.SocialNetwork(), QPS: qps,
			Requests: reqs(quick, 4000), Seed: 23, Mode: microsim.SharedCores,
		})
		fmt.Fprintf(w, "%-6.0f %14.0f %14.0f %14.0f %14.0f\n", qps,
			float64(iso.E2E.Total.Percentile(50))/1e3, float64(iso.E2E.Total.Percentile(99))/1e3,
			float64(sh.E2E.Total.Percentile(50))/1e3, float64(sh.E2E.Total.Percentile(99))/1e3)
	}
	return nil
}

// RunTable1 prints the NIC implementation specification.
func RunTable1(w io.Writer, _ bool) error {
	fmt.Fprintln(w, "Table 1: Implementation specifications of Dagger NIC")
	for _, s := range nicmodel.SpecTable() {
		fmt.Fprintf(w, "  %-46s %s\n", s.Parameter, s.Value)
	}
	return nil
}

// RunTable3 regenerates Table 3: median RTT and single-core throughput vs
// the published baselines; the Dagger row is measured live.
func RunTable3(w io.Writer, quick bool) error {
	upi4 := interconnect.Config{Kind: interconnect.UPI, Batch: 4}
	upi1 := interconnect.Config{Kind: interconnect.UPI, Batch: 1}
	n := reqs(quick, 150_000)
	sat := RunEcho(EchoConfig{Iface: upi4, Requests: n, ToR: true, Seed: 1})
	lat := RunEcho(EchoConfig{Iface: upi1, OfferedRPS: 2e6, Requests: n, ToR: true, Seed: 2})
	dagger := baseline.DaggerRow(lat.MedianUs(), sat.Mrps())

	fmt.Fprintln(w, "Table 3: median RTT and single-core RPC throughput")
	for _, s := range baseline.Published() {
		fmt.Fprintf(w, "  %s (published)\n", baseline.FormatRow(s))
	}
	fmt.Fprintf(w, "  %s (measured)\n", baseline.FormatRow(dagger))
	lo, hi := baseline.SpeedupRange(dagger, baseline.Published())
	fmt.Fprintf(w, "  per-core speedup vs throughput-reporting baselines: %.1f-%.1fx\n", lo, hi)
	return nil
}

// RunFig10 regenerates Figure 10: single-core throughput, median and 99th
// percentile latency for each CPU-NIC interface.
func RunFig10(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "Figure 10: single-core throughput and latency per CPU-NIC interface (64B RPCs)")
	fmt.Fprintf(w, "  %-18s %10s %10s %10s\n", "interface", "thr(Mrps)", "med(us)", "p99(us)")
	n := reqs(quick, 150_000)
	for i, c := range interconnect.Fig10Configs() {
		sat := RunEcho(EchoConfig{Iface: c, Requests: n, Seed: int64(i)})
		lat := RunEcho(EchoConfig{Iface: c, OfferedRPS: 0.85 * sat.ThroughputRPS, Requests: n, Seed: int64(i) + 100})
		fmt.Fprintf(w, "  %-18s %10.1f %10.2f %10.2f\n", c.Name(), sat.Mrps(), lat.MedianUs(), lat.P99Us())
	}
	be := RunEcho(EchoConfig{Iface: interconnect.Config{Kind: interconnect.UPI, Batch: 4},
		Requests: n, BestEffort: true, Seed: 99})
	fmt.Fprintf(w, "  best-effort single-core max: %.1f Mrps (server drops allowed)\n", be.Mrps())
	return nil
}

// RunFig11Latency regenerates Figure 11 (left): latency-throughput curves
// for B in {1, 2, 4, auto}.
func RunFig11Latency(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "Figure 11 (left): latency vs throughput, single-core async 64B RPCs")
	n := reqs(quick, 120_000)
	for _, b := range []interconnect.Config{
		{Kind: interconnect.UPI, Batch: 1},
		{Kind: interconnect.UPI, Batch: 2},
		{Kind: interconnect.UPI, Batch: 4},
		{Kind: interconnect.UPI, Batch: 4, AutoBatch: true},
	} {
		fmt.Fprintf(w, "  %s:\n", b.Name())
		for _, mrps := range []float64{1, 2, 4, 6, 7, 8, 10, 12} {
			eff := ResolveAutoBatch(b, mrps*1e6)
			if mrps*1e6 > eff.SaturationRPS() {
				continue
			}
			r := RunEcho(EchoConfig{Iface: b, OfferedRPS: mrps * 1e6, Requests: n, Seed: int64(mrps * 10)})
			fmt.Fprintf(w, "    offered=%5.1f Mrps achieved=%5.1f med=%5.2fus\n", mrps, r.Mrps(), r.MedianUs())
		}
	}
	return nil
}

// RunFig11Scale regenerates Figure 11 (right): throughput scaling with
// thread count, end-to-end RPCs vs raw UPI reads.
func RunFig11Scale(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "Figure 11 (right): multi-thread scaling, 64B requests")
	fmt.Fprintf(w, "  %-8s %14s %14s\n", "threads", "e2e (Mrps)", "raw UPI (Mrps)")
	n := reqs(quick, 200_000)
	upi4 := interconnect.Config{Kind: interconnect.UPI, Batch: 4}
	for _, th := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		e2e := RunEcho(EchoConfig{Iface: upi4, Threads: th, Requests: n, Seed: int64(th)})
		raw := RunRawReads(th, n*2)
		fmt.Fprintf(w, "  %-8d %14.1f %14.1f\n", th, e2e.Mrps(), raw.ThroughputRPS/1e6)
	}
	return nil
}

// RunFig12 regenerates Figure 12: memcached and MICA over Dagger — latency
// under the write-intensive mix and peak single-core throughput per mix.
func RunFig12(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "Figure 12: memcached and MICA over Dagger (single core)")
	fmt.Fprintf(w, "  %-11s %9s %9s %12s %12s\n", "system", "med(us)", "p99(us)", "50%GET Mrps", "95%GET Mrps")
	n := reqs(quick, 120_000)
	pop := reqs(quick, 200_000)
	for _, cell := range Fig12Cells() {
		cell.Requests = n
		cell.Populate = pop
		// Peak throughput per mix.
		wi := cell
		wi.Mix = workload.WriteIntensive
		satWI := RunKVS(wi)
		ri := cell
		ri.Mix = workload.ReadIntensive
		satRI := RunKVS(ri)
		// Latency at half the write-intensive peak: §5.6 measures latency
		// "under the write-intensive workload" with <1%% drops.
		lat := wi
		lat.OfferedRPS = 0.5 * satWI.ThroughputRPS
		latRes := RunKVS(lat)
		fmt.Fprintf(w, "  %-11s %9.1f %9.1f %12.1f %12.1f\n",
			satWI.Label, latRes.MedianUs(), latRes.P99Us(), satWI.Mrps(), satRI.Mrps())
	}
	return nil
}

// RunFig12Skew regenerates the §5.6 high-locality run: MICA under Zipf
// skew 0.9999.
func RunFig12Skew(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "§5.6 skew run: MICA-tiny under Zipf 0.9999")
	n := reqs(quick, 120_000)
	for _, mix := range []workload.Mix{workload.ReadIntensive, workload.WriteIntensive} {
		r := RunKVS(KVSConfig{
			System: MICA, Dataset: workload.Tiny, Mix: mix,
			Theta: 0.9999, Requests: n, Populate: reqs(quick, 200_000),
		})
		fmt.Fprintf(w, "  %-8s peak throughput = %5.1f Mrps\n", mix.Name, r.Mrps())
	}
	return nil
}

// RunTable4 regenerates Table 4: the Flight Registration service under the
// Simple and Optimized threading models.
func RunTable4(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "Table 4: Flight Registration service, threading models")
	fmt.Fprintf(w, "  %-10s %12s %10s %10s %10s\n", "model", "max Krps", "med(us)", "p90(us)", "p99(us)")
	n := reqs(quick, 40_000)
	simpleLoads := []float64{1000, 2000, 2700, 3500, 5000}
	optLoads := []float64{25000, 40000, 48000, 60000}
	for _, th := range []flight.Threading{flight.Simple, flight.Optimized} {
		loads := simpleLoads
		if th == flight.Optimized {
			loads = optLoads
		}
		maxLoad, _ := flight.MaxSustainableLoad(th, loads, n, 3)
		lat := flight.RunModel(flight.ModelConfig{Threading: th, LoadRPS: 1000, Requests: n, Seed: 4})
		fmt.Fprintf(w, "  %-10s %12.1f %10.1f %10.1f %10.1f\n", th, maxLoad/1e3,
			float64(lat.Latency.Percentile(50))/1e3,
			float64(lat.Latency.Percentile(90))/1e3,
			float64(lat.Latency.Percentile(99))/1e3)
	}
	// Bottleneck analysis via the request tracing system (§5.7).
	tr := trace.NewCollector()
	flight.RunModel(flight.ModelConfig{Threading: flight.Simple, LoadRPS: 2000, Requests: n / 2, Seed: 9, Tracer: tr})
	fmt.Fprintf(w, "  tracing bottleneck: %s service\n", tr.Analyze().Bottleneck())
	return nil
}

// RunFig15 regenerates Figure 15: latency/load curves for the Flight
// Registration service with the Optimized threading model.
func RunFig15(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "Figure 15: Flight Registration latency vs load (Optimized threading)")
	fmt.Fprintf(w, "  %-10s %10s %10s %10s %8s\n", "load Krps", "med(us)", "p90(us)", "p99(us)", "drops")
	n := reqs(quick, 40_000)
	for _, krps := range []float64{15, 20, 25, 30, 35, 40, 45, 50} {
		r := flight.RunModel(flight.ModelConfig{
			Threading: flight.Optimized, LoadRPS: krps * 1e3, Requests: n, Seed: 7,
		})
		fmt.Fprintf(w, "  %-10.0f %10.1f %10.1f %10.1f %7.2f%%\n", krps,
			float64(r.Latency.Percentile(50))/1e3,
			float64(r.Latency.Percentile(90))/1e3,
			float64(r.Latency.Percentile(99))/1e3,
			100*r.DropFrac())
	}
	return nil
}

// RunRawReadCompare regenerates §5.3's raw shared-memory access comparison:
// PCIe DMA vs UPI read latency.
func RunRawReadCompare(w io.Writer, _ bool) error {
	fmt.Fprintln(w, "§5.3 raw shared-memory read latency (one way)")
	fmt.Fprintf(w, "  PCIe DMA: %d ns\n", interconnect.PCIeDMARead)
	fmt.Fprintf(w, "  UPI read: %d ns\n", interconnect.UPIDeliver)
	return nil
}
