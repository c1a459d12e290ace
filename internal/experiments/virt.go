package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"dagger/internal/interconnect"
	"dagger/internal/netmodel"
	"dagger/internal/nicmodel"
	"dagger/internal/sim"
	"dagger/internal/wire"
)

// The Figure 14 experiment: several Dagger NIC instances virtualized on one
// physical FPGA, sharing the CCI-P bus through the round-robin PCIe/UPI
// arbiter and reaching each other through the ToR switch model. The paper
// uses this setup to host the 8 flight-service tiers on one device (§5.7)
// and argues (§6) that per-instance soft configuration plus fair arbitration
// make the NIC an excellent virtualization substrate.
//
// The experiment measures per-tenant throughput in two scenarios:
//   - fair: every tenant offers the same load;
//   - antagonist: tenant 0 floods far beyond its share.
//
// Round-robin arbitration must keep the well-behaved tenants' throughput
// (nearly) unchanged in the antagonist scenario.

// VirtConfig parametrizes the virtualization experiment.
type VirtConfig struct {
	Tenants int
	// OfferedRPSPerTenant is each tenant's open-loop load.
	OfferedRPSPerTenant float64
	// AntagonistMultiplier scales tenant 0's load (1 = fair scenario).
	AntagonistMultiplier float64
	Requests             int
	Seed                 int64
}

// VirtResult reports per-tenant achieved throughput.
type VirtResult struct {
	PerTenantRPS []float64
}

// RunVirt executes the virtualization experiment.
func RunVirt(cfg VirtConfig) *VirtResult {
	if cfg.Tenants <= 0 {
		cfg.Tenants = 4
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 50_000
	}
	if cfg.AntagonistMultiplier <= 0 {
		cfg.AntagonistMultiplier = 1
	}
	eng := sim.NewEngine()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	// One physical FPGA: a shared arbiter in front of the UPI endpoint
	// (12 ns per line grant, the §5.5 endpoint bottleneck) and one NIC
	// instance per tenant.
	arb := netmodel.NewArbiter(eng, cfg.Tenants, interconnect.EndpointRPCService)
	nics := make([]*nicmodel.NIC, cfg.Tenants)
	for i := range nics {
		n, err := nicmodel.NewNIC(eng, nicmodel.HardConfig{ConnCacheSize: 256})
		if err != nil {
			panic(err)
		}
		nics[i] = n
	}
	msg := &wire.Message{Payload: make([]byte, 64)}

	completed := make([]int, cfg.Tenants)
	firstDone := make([]sim.Time, cfg.Tenants)
	lastDone := make([]sim.Time, cfg.Tenants)

	for tenant := 0; tenant < cfg.Tenants; tenant++ {
		tenant := tenant
		offered := cfg.OfferedRPSPerTenant
		perTenant := cfg.Requests / cfg.Tenants
		if tenant == 0 {
			// The antagonist offers (and is given quota for) its inflated
			// load, so it stays active for the whole measurement window.
			offered *= cfg.AntagonistMultiplier
			perTenant = int(float64(perTenant) * cfg.AntagonistMultiplier)
		}
		gapMean := 1e9 / offered
		issued := 0
		var arrive func()
		arrive = func() {
			if issued >= perTenant {
				return
			}
			issued++
			// A tenant round trip: bus grant (arbitrated), its own NIC
			// pipeline, switch hop, and the echo back through the bus.
			arb.Request(tenant, msg.Lines(), func() {
				d := nics[tenant].PipelineDelay(msg)
				eng.After(d+netmodel.ToRDelay, func() {
					arb.Request(tenant, msg.Lines(), func() {
						if completed[tenant] == 0 {
							firstDone[tenant] = eng.Now()
						}
						completed[tenant]++
						lastDone[tenant] = eng.Now()
					})
				})
			})
			gap := sim.Time(rng.ExpFloat64() * gapMean)
			if gap < 1 {
				gap = 1
			}
			eng.After(gap, arrive)
		}
		eng.After(0, arrive)
	}
	eng.Run()

	// Rate each tenant over its own active window: tenants finish their
	// quotas at different times.
	res := &VirtResult{PerTenantRPS: make([]float64, cfg.Tenants)}
	for i, c := range completed {
		if window := lastDone[i] - firstDone[i]; window > 0 {
			res.PerTenantRPS[i] = float64(c-1) / (float64(window) / 1e9)
		}
	}
	return res
}

// RunFig14 regenerates the Figure 14 virtualization demonstration.
func RunFig14(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "Figure 14: virtualized NIC instances sharing one FPGA (round-robin arbiter)")
	n := reqs(quick, 200_000)
	fair := RunVirt(VirtConfig{Tenants: 4, OfferedRPSPerTenant: 5e6, Requests: n, Seed: 1})
	antagonist := RunVirt(VirtConfig{Tenants: 4, OfferedRPSPerTenant: 5e6,
		AntagonistMultiplier: 10, Requests: n, Seed: 1})
	fmt.Fprintf(w, "  %-22s", "scenario")
	for i := 0; i < 4; i++ {
		fmt.Fprintf(w, "  tenant%d(Mrps)", i)
	}
	fmt.Fprintln(w)
	row := func(name string, r *VirtResult) {
		fmt.Fprintf(w, "  %-22s", name)
		for _, rps := range r.PerTenantRPS {
			fmt.Fprintf(w, "  %13.1f", rps/1e6)
		}
		fmt.Fprintln(w)
	}
	row("fair (5 Mrps each)", fair)
	row("tenant0 floods (x10)", antagonist)
	fmt.Fprintln(w, "  round-robin arbitration isolates well-behaved tenants from the antagonist")
	return nil
}
