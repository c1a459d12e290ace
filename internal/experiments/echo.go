// Package experiments composes the substrate models into the paper's
// evaluation: one runner per table and figure (§5), each printing the same
// rows or series the paper reports. `cmd/daggerbench` drives these runners.
package experiments

import (
	"math/rand"

	"dagger/internal/dataplane"
	"dagger/internal/interconnect"
	"dagger/internal/netmodel"
	"dagger/internal/nicmodel"
	"dagger/internal/sim"
	"dagger/internal/stats"
	"dagger/internal/wire"
)

// Echo timing constants shared by the RPC-path experiments. The stack is
// symmetric (§4.4): the server core pays the same per-RPC interface cost as
// the client (receive pickup + response submission); the echo handler
// itself is folded into that cost.
const (
	linkDelay = netmodel.LoopbackDelay
	// bestEffortBookkeep is the residual per-RPC client cost when responses
	// are not processed (the §5.2 best-effort mode: "allowing arbitrary
	// packet drops by the server").
	bestEffortBookkeep sim.Time = 12
	// bestEffortQueueCap bounds the server-core queue in best-effort mode;
	// arrivals refused by dataplane.Admit at this depth are dropped (65 keeps
	// the pre-dataplane "depth > 64 drops" admission boundary).
	bestEffortQueueCap = 65
	// echoPayloadBytes sizes each RPC, as in the paper's Figure 10/11 runs.
	echoPayloadBytes = 64
)

// EchoConfig parametrizes the symmetric echo benchmark of §5.2–5.5: a
// client issues fixed-size RPCs to an echo server over the full Dagger
// pipeline (CPU -> interconnect -> NIC RPC unit -> network -> NIC -> CPU and
// back).
type EchoConfig struct {
	// Iface is the CPU-NIC interface under test.
	Iface interconnect.Config
	// OfferedRPS is the open-loop offered load; 0 means "saturate": offer
	// well beyond capacity and measure sustained completions.
	OfferedRPS float64
	// Requests is the number of RPCs to issue.
	Requests int
	// Threads is the number of client threads (Figure 11 right); each gets
	// its own NIC flow and core share.
	Threads int
	// ToR adds the top-of-rack switch crossing (Table 3's setting) instead
	// of the pure FPGA loopback.
	ToR bool
	// BestEffort allows dropping requests at full queues instead of
	// back-pressuring (the paper's 16.5 Mrps best-effort run).
	BestEffort bool
	Seed       int64
}

// EchoResult is the measured outcome.
type EchoResult struct {
	ThroughputRPS float64
	Latency       *stats.Histogram // ns round trip
	Completed     int
	Dropped       int
}

// MedianUs returns the median round trip in microseconds.
func (r *EchoResult) MedianUs() float64 { return float64(r.Latency.Percentile(50)) / 1e3 }

// P99Us returns the 99th percentile round trip in microseconds.
func (r *EchoResult) P99Us() float64 { return float64(r.Latency.Percentile(99)) / 1e3 }

// Mrps returns throughput in millions of requests per second.
func (r *EchoResult) Mrps() float64 { return r.ThroughputRPS / 1e6 }

// batcher groups submissions into CCI-P batches (§4.4). A fixed-width
// batcher waits for a full batch (the B=4 low-load latency penalty of
// Fig. 11); the auto mode is resolved to a width before the run by the
// soft-reconfiguration unit.
type batcher struct {
	eng   *sim.Engine
	width int
	buf   []func()
	flush func([]func())
}

func (b *batcher) add(fn func()) {
	b.buf = append(b.buf, fn)
	if len(b.buf) >= b.width {
		batch := b.buf
		b.buf = nil
		b.flush(batch)
	}
}

// autoBatchThresholdRPS is the load above which the soft-reconfiguration
// unit switches from B=1 to the full batch width (Fig. 11's "B = auto").
const autoBatchThresholdRPS = 7e6

// ResolveAutoBatch applies the soft-reconfiguration policy: at low offered
// load run unbatched for latency; at high load use B=4 for throughput.
func ResolveAutoBatch(cfg interconnect.Config, offeredRPS float64) interconnect.Config {
	if !cfg.AutoBatch {
		return cfg
	}
	resolved := cfg
	resolved.AutoBatch = false
	if offeredRPS > 0 && offeredRPS < autoBatchThresholdRPS {
		return resolved.WithBatch(1)
	}
	return resolved.WithBatch(4)
}

// RunEcho executes the echo benchmark on the timing stack.
func RunEcho(cfg EchoConfig) *EchoResult {
	if cfg.Requests <= 0 {
		cfg.Requests = 200_000
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	iface := ResolveAutoBatch(cfg.Iface, cfg.OfferedRPS)
	saturate := cfg.OfferedRPS <= 0
	offered := cfg.OfferedRPS
	if saturate {
		offered = 3 * iface.SaturationRPS() * float64(cfg.Threads)
	}

	eng := sim.NewEngine()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	// Two NIC instances in loopback, as in §5.1.
	clientNIC, err := nicmodel.NewNIC(eng, nicmodel.HardConfig{ConnCacheSize: 1024})
	if err != nil {
		panic(err)
	}
	serverNIC, err := nicmodel.NewNIC(eng, nicmodel.HardConfig{ConnCacheSize: 1024})
	if err != nil {
		panic(err)
	}
	// One connection per client thread, registered in the server NIC's
	// connection manager; per-request lookups hit the direct-mapped cache
	// (a miss would add a host-memory round trip).
	for th := 0; th < cfg.Threads; th++ {
		if err := serverNIC.CM.Open(uint32(th+1), nicmodel.ConnTuple{SrcFlow: uint16(th)}); err != nil {
			panic(err)
		}
	}

	// Shared UPI/CCI-P endpoint on the FPGA (the blue-region bottleneck,
	// §5.5). PCIe interfaces get an endpoint too, but with ample capacity.
	epService := interconnect.EndpointRPCService
	if iface.Kind != interconnect.UPI {
		epService = 8
	}
	endpoint := interconnect.NewEndpoint(eng, epService)

	net := linkDelay
	if cfg.ToR {
		// One switch crossing per direction: +0.3 us on the round trip.
		net += netmodel.ToRDelay
	}

	// Per-thread client core and server core; with >1 thread, SMT packing
	// inflates per-thread CPU cost (2 threads per physical core, §5.5).
	threadsOnCore := 1
	if cfg.Threads > 1 {
		threadsOnCore = 2
	}
	txCPU := sim.Time(float64(iface.TxCPU()) * float64(interconnect.ThreadCPUPerRPC(iface, threadsOnCore)) / float64(iface.CPUPerRPC()))
	rxCPU := interconnect.ThreadCPUPerRPC(iface, threadsOnCore) - txCPU

	res := &EchoResult{Latency: stats.NewHistogram()}
	msg := &wire.Message{Payload: make([]byte, echoPayloadBytes)}

	var firstArrival, lastCompletion sim.Time
	perThread := cfg.Requests / cfg.Threads
	if perThread == 0 {
		perThread = 1
	}

	for th := 0; th < cfg.Threads; th++ {
		th := th
		clientCore := sim.NewResource(eng, 1)
		serverCore := sim.NewResource(eng, 1)
		inflight := 0
		maxInflight := iface.MaxOutstanding()
		if cfg.BestEffort {
			maxInflight = 1 << 30 // drops replace back-pressure
		}

		// Return path delivery to the client (NIC -> host -> client core).
		complete := func(start sim.Time) {
			eng.After(iface.RxDeliver(), func() {
				if cfg.BestEffort {
					// Response pickup is skipped; latency is not tracked.
					inflight--
					return
				}
				clientCore.Acquire(func() {
					eng.After(rxCPU, func() {
						clientCore.Release()
						inflight--
						res.Completed++
						res.Latency.Record(int64(eng.Now() - start))
						if eng.Now() > lastCompletion {
							lastCompletion = eng.Now()
						}
					})
				})
			})
		}

		// Server response path: server core prepares and submits the echo
		// response through its own interface batch.
		serverTx := &batcher{eng: eng, width: iface.Batch}
		serverTx.flush = func(batch []func()) {
			eng.After(iface.TxDeliver(), func() {
				for _, fn := range batch {
					endpoint.Admit(func() {
						d := serverNIC.PipelineDelay(msg)
						eng.After(d+net, fn)
					})
				}
			})
		}

		// Server receive path: the NIC looks the connection up (to steer
		// the response) and touches its transport state in the HCC before
		// delivering to the host. In best-effort mode the server sheds
		// load: requests arriving to a deeply backed-up core are dropped
		// without a response.
		serveReq := func(start sim.Time) {
			_, cmPenalty, err := serverNIC.CM.Lookup(uint32(th + 1))
			if err != nil {
				panic(err)
			}
			hccPenalty := serverNIC.HCC.Access(uint64(th) * 64)
			eng.After(iface.RxDeliver()+cmPenalty+hccPenalty, func() {
				if cfg.BestEffort && !dataplane.Admit(serverCore.QueueLen(), bestEffortQueueCap) {
					res.Dropped++
					return
				}
				serverCore.Acquire(func() {
					eng.After(rxCPU+txCPU, func() {
						serverCore.Release()
						serverTx.add(func() { complete(start) })
					})
				})
			})
		}

		// Client TX path.
		clientTx := &batcher{eng: eng, width: iface.Batch}
		clientTx.flush = func(batch []func()) {
			eng.After(iface.TxDeliver(), func() {
				for _, fn := range batch {
					endpoint.Admit(func() {
						d := clientNIC.PipelineDelay(msg)
						eng.After(d+net, fn)
					})
				}
			})
		}

		// Open-loop arrivals on this thread. When the CCI-P outstanding
		// window (128) is full, submission back-pressures: the arrival
		// retries until a slot frees (or drops, in best-effort mode).
		gapMean := 1e9 / (offered / float64(cfg.Threads))
		issued := 0
		var arrive func()
		arrive = func() {
			if issued >= perThread {
				return
			}
			issued++
			start := eng.Now()
			if th == 0 && issued == 1 {
				firstArrival = start
			}
			next := func() {
				gap := sim.Time(rng.ExpFloat64() * gapMean)
				if gap < 1 {
					gap = 1
				}
				eng.After(gap, arrive)
			}
			submitCost := txCPU
			if cfg.BestEffort {
				// The client skips response processing; only submission
				// plus minimal bookkeeping hits the core.
				submitCost = txCPU + bestEffortBookkeep
			}
			admit := func() {
				inflight++
				clientCore.Acquire(func() {
					eng.After(submitCost, func() {
						clientCore.Release()
						if cfg.BestEffort {
							// Throughput is counted at submission; the
							// response path (if any) is best-effort.
							res.Completed++
							if eng.Now() > lastCompletion {
								lastCompletion = eng.Now()
							}
						}
						clientTx.add(func() { serveReq(start) })
					})
				})
			}
			if inflight < maxInflight {
				admit()
				next()
				return
			}
			if cfg.BestEffort {
				res.Dropped++
				next()
				return
			}
			var retry func()
			retry = func() {
				if inflight < maxInflight {
					admit()
					next()
					return
				}
				eng.After(50, retry)
			}
			eng.After(50, retry)
		}
		eng.After(0, arrive)
	}

	eng.Run()
	elapsed := lastCompletion - firstArrival
	if elapsed > 0 {
		res.ThroughputRPS = float64(res.Completed) / (float64(elapsed) / 1e9)
	}
	return res
}

// RawReadResult is the §5.5 raw idle-read scaling measurement.
type RawReadResult struct {
	Threads       int
	ThroughputRPS float64
}

// rawReadCPU is the per-read thread cost of an idle UPI memory read.
const rawReadCPU sim.Time = 80

// RunRawReads measures raw UPI read scaling (Fig. 11 right, red series):
// threads issue idle memory reads through the shared UPI endpoint.
func RunRawReads(threads, reads int) *RawReadResult {
	if reads <= 0 {
		reads = 500_000
	}
	eng := sim.NewEngine()
	endpoint := interconnect.NewEndpoint(eng, interconnect.EndpointRawService)
	threadsOnCore := 1
	if threads > 1 {
		threadsOnCore = 2
	}
	cost := rawReadCPU
	if threadsOnCore > 1 {
		cost = sim.Time(float64(cost) / interconnect.SMTFactor)
	}
	completed := 0
	var last sim.Time
	per := reads / threads
	for th := 0; th < threads; th++ {
		var issue func()
		n := 0
		issue = func() {
			if n >= per {
				return
			}
			n++
			// Reads are pipelined: the thread pays its per-read CPU cost
			// and keeps issuing while the endpoint serves asynchronously.
			endpoint.Admit(func() {
				completed++
				if eng.Now() > last {
					last = eng.Now()
				}
			})
			eng.After(cost, issue)
		}
		eng.After(0, issue)
	}
	eng.Run()
	r := &RawReadResult{Threads: threads}
	if last > 0 {
		r.ThroughputRPS = float64(completed) / (float64(last) / 1e9)
	}
	return r
}
