package microsim

import (
	"math"
	"math/rand"

	"dagger/internal/sim"
	"dagger/internal/stats"
)

// Mode selects where networking processing runs (Figure 5's experiment).
type Mode int

// Core placement modes.
const (
	// IsolatedNetworking pins network interrupt/RPC processing to separate
	// cores: tier cores run application logic only.
	IsolatedNetworking Mode = iota
	// SharedCores runs networking and application logic on the same cores:
	// networking processing occupies tier cores and interferes.
	SharedCores
)

func (m Mode) String() string {
	if m == SharedCores {
		return "shared"
	}
	return "isolated"
}

// RunConfig parametrizes one characterization run.
type RunConfig struct {
	Graph *Graph
	// QPS is the offered end-to-end load.
	QPS float64
	// Requests is the number of end-to-end requests to complete.
	Requests int
	// Seed fixes the run's randomness.
	Seed int64
	// Mode places networking on shared or isolated cores.
	Mode Mode
}

// TierStats aggregates per-visit measurements at one tier.
type TierStats struct {
	Total   *stats.Histogram // ns, full visit latency (incl. children wait? no — own components only)
	Net     *stats.Histogram // ns, RPC+TCP+queueing
	RPC     *stats.Histogram // ns, RPC processing + queueing share
	TCP     *stats.Histogram // ns, TCP/IP processing
	Compute *stats.Histogram // ns, application compute
}

func newTierStats() *TierStats {
	return &TierStats{
		Total:   stats.NewHistogram(),
		Net:     stats.NewHistogram(),
		RPC:     stats.NewHistogram(),
		TCP:     stats.NewHistogram(),
		Compute: stats.NewHistogram(),
	}
}

// NetFrac returns the networking share of latency at percentile p, computed
// as the ratio of the component percentiles.
func (ts *TierStats) NetFrac(p float64) float64 {
	tot := ts.Total.Percentile(p)
	if tot == 0 {
		return 0
	}
	f := float64(ts.Net.Percentile(p)) / float64(tot)
	if f > 1 {
		f = 1
	}
	return f
}

// Result is one run's output.
type Result struct {
	Config   RunConfig
	PerTier  map[string]*TierStats
	E2E      *TierStats
	PerType  map[string]*stats.Histogram // request type -> e2e latency, ns
	ReqSizes map[string][]int64          // tier -> request sizes
	RspSizes map[string][]int64
	Finished int
}

// AllReqSizes flattens request sizes across tiers.
func (r *Result) AllReqSizes() []int64 {
	var out []int64
	for _, v := range r.ReqSizes {
		out = append(out, v...)
	}
	return out
}

// AllRspSizes flattens response sizes across tiers.
func (r *Result) AllRspSizes() []int64 {
	var out []int64
	for _, v := range r.RspSizes {
		out = append(out, v...)
	}
	return out
}

type runner struct {
	cfg   RunConfig
	eng   *sim.Engine
	rng   *rand.Rand
	cores []*sim.Resource
	res   *Result
}

// Run executes one characterization run to completion.
func Run(cfg RunConfig) *Result {
	if cfg.Requests <= 0 {
		cfg.Requests = 2000
	}
	r := &runner{
		cfg: cfg,
		eng: sim.NewEngine(),
		rng: rand.New(rand.NewSource(cfg.Seed + 1)),
		res: &Result{
			Config:   cfg,
			PerTier:  map[string]*TierStats{},
			E2E:      newTierStats(),
			PerType:  map[string]*stats.Histogram{},
			ReqSizes: map[string][]int64{},
			RspSizes: map[string][]int64{},
		},
	}
	for _, t := range cfg.Graph.Tiers {
		r.cores = append(r.cores, sim.NewResource(r.eng, t.Cores))
		r.res.PerTier[t.Name] = newTierStats()
	}
	// Open-loop Poisson arrivals.
	gap := func() sim.Time {
		g := sim.Time(-math.Log(1-r.rng.Float64()) / cfg.QPS * 1e9)
		if g < 1 {
			g = 1
		}
		return g
	}
	launched := 0
	var arrive func()
	arrive = func() {
		if launched >= cfg.Requests {
			return
		}
		launched++
		typ := cfg.Graph.pickType(r.rng)
		start := r.eng.Now()
		typeHist := r.res.PerType[typ.Name]
		if typeHist == nil {
			typeHist = stats.NewHistogram()
			r.res.PerType[typ.Name] = typeHist
		}
		r.visit(typ.Root, func(net, comp sim.Time) {
			total := r.eng.Now() - start
			r.res.E2E.Total.Record(int64(total))
			r.res.E2E.Net.Record(int64(net))
			r.res.E2E.Compute.Record(int64(comp))
			typeHist.Record(int64(total))
			r.res.Finished++
		})
		r.eng.After(gap(), arrive)
	}
	r.eng.After(0, arrive)
	r.eng.Run()
	return r.res
}

// visit executes one call-tree node: queue for the tier's cores, pay
// networking and compute costs, fan out to children in parallel, and
// report this subtree's accumulated networking and compute time.
func (r *runner) visit(c Call, done func(net, comp sim.Time)) {
	tier := &r.cfg.Graph.Tiers[c.Tier]
	ts := r.res.PerTier[tier.Name]
	for i := 0; i < max(1, c.Count); i++ {
		r.visitOnce(tier, ts, c, done)
	}
}

func (r *runner) visitOnce(tier *Tier, ts *TierStats, c Call, done func(net, comp sim.Time)) {
	// Sample this visit's costs.
	compute := tier.ComputeMean
	if tier.ComputeSigma > 0 {
		compute = sim.Time(float64(tier.ComputeMean) * math.Exp(tier.ComputeSigma*r.rng.NormFloat64()-tier.ComputeSigma*tier.ComputeSigma/2))
	}
	rpcCost, tcpCost := tier.RPCCost, tier.TCPCost

	// Record this visit's RPC sizes for Figure 4.
	r.res.ReqSizes[tier.Name] = append(r.res.ReqSizes[tier.Name], tier.ReqSize.Sample(r.rng))
	r.res.RspSizes[tier.Name] = append(r.res.RspSizes[tier.Name], tier.RespSize.Sample(r.rng))

	arrival := r.eng.Now()
	core := r.cores[r.cfg.Graph.TierIndex(tier.Name)]
	core.Acquire(func() {
		queueWait := r.eng.Now() - arrival
		// Core occupancy: in shared mode the core also runs the RPC and
		// TCP processing; isolated mode offloads it (it still takes wall
		// time, on other cores, but does not occupy this tier's cores).
		occupancy := compute
		if r.cfg.Mode == SharedCores {
			occupancy += rpcCost + tcpCost
		}
		r.eng.After(occupancy, func() {
			core.Release()
			// Networking wall time: processing plus queueing (the paper's
			// profiler attributes queue time to the RPC layer, §3.1).
			netHere := rpcCost + tcpCost + queueWait
			finish := func(childNet, childComp sim.Time) {
				visitNet := netHere + childNet
				visitComp := compute + childComp
				ts.Total.Record(int64(queueWait + rpcCost + tcpCost + compute))
				ts.Net.Record(int64(netHere))
				ts.RPC.Record(int64(rpcCost + queueWait))
				ts.TCP.Record(int64(tcpCost))
				ts.Compute.Record(int64(compute))
				done(visitNet, visitComp)
			}
			if len(c.Children) == 0 {
				finish(0, 0)
				return
			}
			// Fan out to children in parallel; wait for all.
			remaining := 0
			for _, ch := range c.Children {
				remaining += max(1, ch.Count)
			}
			var maxNet, maxComp sim.Time
			for _, ch := range c.Children {
				r.visit(ch, func(n, cp sim.Time) {
					if n > maxNet {
						maxNet = n
					}
					if cp > maxComp {
						maxComp = cp
					}
					remaining--
					if remaining == 0 {
						finish(maxNet, maxComp)
					}
				})
			}
		})
	})
}
