package flight

import (
	"math/rand"

	"dagger/internal/sim"
	"dagger/internal/stats"
	"dagger/internal/trace"
)

// This file is the timing model that regenerates Table 4 and Figure 15:
// the same 8-tier graph as the functional app, executed as a discrete-event
// queueing simulation at Dagger-scale clocks. The threading models map to
// queueing structure exactly as in §5.7:
//
//   - Simple: each tier's RPC handlers run in the dispatch threads. A
//     long-running Flight lookup blocks its flow's dispatch thread, the
//     NIC's RX ring backs up, and requests drop — which is what caps the
//     Simple model's sustainable load at a few Krps despite its lower
//     baseline latency.
//   - Optimized: Flight, Check-in and Passport hand requests from dispatch
//     to worker threads. Dispatch threads only pay the RX/dispatch cost, so
//     rings drain even while workers chew on slow requests; throughput
//     rises ~17x at the cost of inter-thread handoff latency.

// Threading selects the Table 4 row.
type Threading int

// Threading models of Table 4.
const (
	// Simple runs every handler in its dispatch thread.
	Simple Threading = iota
	// Optimized moves Flight/CheckIn/Passport handlers to worker pools.
	Optimized
)

func (m Threading) String() string {
	if m == Optimized {
		return "Optimized"
	}
	return "Simple"
}

// ModelConfig parametrizes a run.
type ModelConfig struct {
	Threading Threading
	// LoadRPS is the offered passenger-registration load.
	LoadRPS float64
	// Requests to offer (completed + dropped).
	Requests int
	Seed     int64
	// Tracer, when set, records per-tier spans for bottleneck analysis.
	Tracer *trace.Collector
}

// Model timing constants (simulated nanoseconds).
const (
	hopLatency   sim.Time = 1300 // one NIC-to-NIC RPC hop over Dagger
	rxDispatch   sim.Time = 600  // dispatch-thread RX + unmarshal cost
	handoffCost  sim.Time = 2500 // dispatch->worker queue transfer
	feWork       sim.Time = 500  // front-end request handling
	checkinWork  sim.Time = 1200 // orchestration logic
	baggageWork  sim.Time = 900
	passportWork sim.Time = 800
	micaWork     sim.Time = 700 // Airport / Citizens lookup or write

	flightFastWork sim.Time = 4000                 // typical flight lookup
	flightSlowWork sim.Time = 12 * sim.Millisecond // long-running lookup
	flightSlowFrac          = 0.003
)

// Model tier sizing.
const (
	modelFlows = 2 // each tier's NIC flow / dispatch thread count
	// modelRingDepth is the per-flow RX ring depth, per the paper's ring
	// provisioning rule for Krps-scale flows.
	modelRingDepth = 6
	modelWorkers   = 4 // worker pool size in the Optimized model
)

// ModelResult is one run's output.
type ModelResult struct {
	Threading Threading
	LoadRPS   float64
	Latency   *stats.Histogram // ns, completed end-to-end registrations
	Offered   int
	Completed int
	Dropped   int
}

// DropFrac returns the fraction of offered requests dropped.
func (r *ModelResult) DropFrac() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Dropped) / float64(r.Offered)
}

// modelTier is one service in the queueing model.
type modelTier struct {
	name     string
	eng      *sim.Engine
	ring     *sim.Queue    // bounded RX ring (flows * depth)
	dispatch *sim.Resource // dispatch threads (= flows)
	workers  *sim.Resource // worker pool (Optimized tiers only)
	workQ    *sim.Queue    // dispatch -> worker queue
	drops    *int
}

type flightModel struct {
	cfg ModelConfig
	eng *sim.Engine
	rng *rand.Rand
	res *ModelResult

	pfe, checkin, flight, baggage, passport, airport, citizens, staff *modelTier
}

func newModelTier(eng *sim.Engine, name string, workers int, drops *int) *modelTier {
	t := &modelTier{
		name:     name,
		eng:      eng,
		ring:     sim.NewQueue(modelFlows * modelRingDepth),
		dispatch: sim.NewResource(eng, modelFlows),
		drops:    drops,
	}
	if workers > 0 {
		t.workers = sim.NewResource(eng, workers)
		t.workQ = sim.NewQueue(256)
	}
	return t
}

// handle admits one request to the tier: ring -> dispatch -> (workers) ->
// body. body runs holding the processing thread; it must call release()
// exactly once when the handler logic (including nested blocking calls, in
// the holding thread's context) is done. fail runs instead when the request
// is dropped at this tier.
func (t *modelTier) handle(traceID uint64, tr *trace.Collector, work sim.Time,
	body func(release func()), fail func()) {
	arrival := t.eng.Now()
	if !t.ring.Push(struct{}{}) {
		*t.drops++
		fail()
		return
	}
	t.dispatch.Acquire(func() {
		t.ring.Pop()
		if t.workers == nil {
			// Dispatch-thread processing: hold the dispatch thread through
			// the handler body.
			t.eng.After(rxDispatch+work, func() {
				queue := t.eng.Now() - arrival - rxDispatch - work
				body(func() {
					if tr != nil {
						tr.Record(traceID, trace.Span{Service: t.name, Queue: queue, Work: work})
					}
					t.dispatch.Release()
				})
			})
			return
		}
		// Worker processing: dispatch pays only RX + handoff, then frees.
		t.eng.After(rxDispatch, func() {
			t.dispatch.Release()
			if !t.workQ.Push(struct{}{}) {
				*t.drops++
				fail()
				return
			}
			t.workers.Acquire(func() {
				t.workQ.Pop()
				t.eng.After(handoffCost+work, func() {
					queue := t.eng.Now() - arrival - rxDispatch - handoffCost - work
					body(func() {
						if tr != nil {
							tr.Record(traceID, trace.Span{Service: t.name, Queue: queue, Work: work})
						}
						t.workers.Release()
					})
				})
			})
		})
	})
}

// RunModel executes the Table 4 / Figure 15 experiment.
func RunModel(cfg ModelConfig) *ModelResult {
	if cfg.Requests <= 0 {
		cfg.Requests = 20000
	}
	m := &flightModel{
		cfg: cfg,
		eng: sim.NewEngine(),
		rng: rand.New(rand.NewSource(cfg.Seed + 1)),
		res: &ModelResult{Threading: cfg.Threading, LoadRPS: cfg.LoadRPS, Latency: stats.NewHistogram()},
	}
	workersFor := func(tier string) int {
		if cfg.Threading == Optimized {
			switch tier {
			case "Flight", "CheckIn", "Passport":
				return modelWorkers
			}
		}
		return 0
	}
	mk := func(name string) *modelTier {
		return newModelTier(m.eng, name, workersFor(name), &m.res.Dropped)
	}
	m.pfe = mk("PassengerFE")
	m.checkin = mk("CheckIn")
	m.flight = mk("Flight")
	m.baggage = mk("Baggage")
	m.passport = mk("Passport")
	m.airport = mk("AirportDB")
	m.citizens = mk("CitizensDB")
	m.staff = mk("StaffFE")

	// Open-loop Poisson arrivals at the passenger front-end.
	meanGap := 1e9 / cfg.LoadRPS
	var arrive func()
	offered := 0
	arrive = func() {
		if offered >= cfg.Requests {
			return
		}
		offered++
		m.res.Offered++
		m.registration()
		gap := sim.Time(m.rng.ExpFloat64() * meanGap)
		if gap < 1 {
			gap = 1
		}
		m.eng.After(gap, arrive)
	}
	// Staff front-end asynchronously audits Airport records at a tenth of
	// the passenger load (Figure 13's many-to-one dependency on the DB).
	staffGap := meanGap * 10
	staffOffered := 0
	var staffAudit func()
	staffAudit = func() {
		if staffOffered >= cfg.Requests/10 {
			return
		}
		staffOffered++
		m.staff.handle(0, nil, m.jitter(feWork), func(relFE func()) {
			relFE()
			m.hop(func() {
				m.airport.handle(0, nil, m.jitter(micaWork), func(relDB func()) {
					relDB()
				}, func() {})
			})
		}, func() {})
		gap := sim.Time(m.rng.ExpFloat64() * staffGap)
		if gap < 1 {
			gap = 1
		}
		m.eng.After(gap, staffAudit)
	}
	m.eng.After(0, arrive)
	m.eng.After(0, staffAudit)
	m.eng.Run()
	return m.res
}

// registration walks one passenger registration through the graph.
func (m *flightModel) registration() {
	start := m.eng.Now()
	var traceID uint64
	if m.cfg.Tracer != nil {
		traceID = m.cfg.Tracer.Begin()
	}
	dropped := func() {}
	m.pfe.handle(traceID, m.cfg.Tracer, m.jitter(feWork), func(releaseFE func()) {
		// Front-end issues a non-blocking RPC to Check-in and does not
		// hold its thread, so release immediately after send.
		releaseFE()
		m.hop(func() {
			m.checkin.handle(traceID, m.cfg.Tracer, m.jitter(checkinWork), func(releaseCI func()) {
				// Fan out (non-blocking) to Flight, Baggage, Passport;
				// Check-in's thread blocks until all three respond.
				remaining := 3
				join := func() {
					remaining--
					if remaining > 0 {
						return
					}
					// Blocking write to the Airport DB, then respond.
					m.hop(func() {
						m.airport.handle(traceID, m.cfg.Tracer, m.jitter(micaWork), func(releaseDB func()) {
							releaseDB()
							m.hop(func() {
								releaseCI()
								// Response travels back to the front-end.
								m.hop(func() {
									m.res.Completed++
									m.res.Latency.Record(int64(m.eng.Now() - start))
								})
							})
						}, func() { releaseCI(); dropped() })
					})
				}
				m.hop(func() {
					m.flight.handle(traceID, m.cfg.Tracer, m.flightWork(), func(rel func()) {
						rel()
						m.hop(join)
					}, func() { join() }) // a drop still unblocks the join
				})
				m.hop(func() {
					m.baggage.handle(traceID, m.cfg.Tracer, m.jitter(baggageWork), func(rel func()) {
						rel()
						m.hop(join)
					}, func() { join() })
				})
				m.hop(func() {
					m.passport.handle(traceID, m.cfg.Tracer, m.jitter(passportWork), func(relPP func()) {
						// Passport blocks on a nested Citizens lookup.
						m.hop(func() {
							m.citizens.handle(traceID, m.cfg.Tracer, m.jitter(micaWork), func(relCZ func()) {
								relCZ()
								m.hop(func() {
									relPP()
									m.hop(join)
								})
							}, func() { relPP(); join() })
						})
					}, func() { join() })
				})
			}, dropped)
		})
	}, dropped)
}

func (m *flightModel) flightWork() sim.Time {
	if m.rng.Float64() < flightSlowFrac {
		return m.jitter(flightSlowWork)
	}
	return m.jitter(flightFastWork)
}

// jitter applies ±30% uniform spread so low-load tails are not degenerate.
func (m *flightModel) jitter(t sim.Time) sim.Time {
	return sim.Time(float64(t) * (0.7 + 0.6*m.rng.Float64()))
}

func (m *flightModel) hop(fn func()) {
	m.eng.After(hopLatency, fn)
}

// MaxSustainableLoad sweeps offered load and returns the highest load whose
// drop fraction stays under 1% (Table 4's "highest load" criterion).
func MaxSustainableLoad(th Threading, loads []float64, requests int, seed int64) (float64, *ModelResult) {
	var best float64
	var bestRes *ModelResult
	for _, l := range loads {
		res := RunModel(ModelConfig{Threading: th, LoadRPS: l, Requests: requests, Seed: seed})
		if res.DropFrac() <= 0.01 && l > best {
			best = l
			bestRes = res
		}
	}
	return best, bestRes
}
