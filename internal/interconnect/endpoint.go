package interconnect

import "dagger/internal/sim"

// Endpoint models the FPGA-side UPI/CCI-P endpoint IP in the blue bitstream.
// The paper's thread-scaling experiment (§5.5, Fig. 11 right) shows the
// endpoint — not the CPU or the NIC pipeline — is the multi-thread
// bottleneck: raw UPI reads flatten at ~80 Mrps, end-to-end RPCs at
// ~42 Mrps. We model it as a deterministic single server with a fixed
// per-request service time.
type Endpoint struct {
	eng       *sim.Engine
	svc       sim.Time
	busyUntil sim.Time
}

// Endpoint service times implied by the measured saturation rates. An
// end-to-end RPC crosses the endpoint twice (request into the NIC, response
// out of the peer NIC instance on the same FPGA), so 12 ns per crossing
// caps end-to-end traffic at ~42 Mrps; a raw idle read crosses once,
// capping at ~83 Mrps.
const (
	// EndpointRPCService is the per-crossing service time for RPC traffic.
	EndpointRPCService sim.Time = 12
	// EndpointRawService is the service time for raw idle memory reads.
	EndpointRawService sim.Time = 12
)

// NewEndpoint creates an endpoint with a per-request service time.
func NewEndpoint(eng *sim.Engine, serviceTime sim.Time) *Endpoint {
	if serviceTime <= 0 {
		panic("interconnect: endpoint service time must be positive")
	}
	return &Endpoint{eng: eng, svc: serviceTime}
}

// Admit serializes one request through the endpoint; fn runs when the
// request's service completes.
func (ep *Endpoint) Admit(fn func()) {
	start := ep.eng.Now()
	if ep.busyUntil > start {
		start = ep.busyUntil
	}
	ep.busyUntil = start + ep.svc
	ep.eng.At(ep.busyUntil, fn)
}

// SMT models simultaneous multithreading slowdown: when two logical threads
// share one physical core, each runs at SMTFactor of its solo speed. The
// paper's platform is a 12-core, 2-thread/core Broadwell (Table 2); its
// scaling run packs 2 threads per core, which is why 4 threads reach
// ~42 Mrps rather than 4x12.4.
const SMTFactor = 0.85

// ThreadCPUPerRPC returns the effective per-RPC CPU cost for a thread given
// how many logical threads share its physical core.
func ThreadCPUPerRPC(cfg Config, threadsOnCore int) sim.Time {
	base := float64(cfg.CPUPerRPC())
	if threadsOnCore > 1 {
		base /= SMTFactor
	}
	return sim.Time(base)
}
