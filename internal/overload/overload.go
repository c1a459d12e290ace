// Package overload drives the functional (real-goroutine) Dagger stack
// past saturation in real time: an open-loop Poisson client offers load to
// an RpcThreadedServer with a single worker thread whose handler takes a
// fixed service time. With Shed set, every request carries a deadline budget
// (context deadline -> wire Budget), so the server applies the shared
// dataplane shed policy (core.ShedDecision) and drops budget-expired work
// before the handler runs; without it, requests carry no deadline and the
// backlog drains at full service cost, amplifying the completed-request
// tail.
//
// This is the functional-substrate half of the daggerbench "overload"
// experiment. It reads the wall clock, so unlike the timing-stack half its
// numbers are indicative rather than deterministic; the sweep's regression
// assertion lives on the timing side.
package overload

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"dagger/internal/core"
	"dagger/internal/fabric"
)

const (
	clientAddr = 0x0A000001
	serverAddr = 0x0A000002
	fnWork     = 1

	// serviceTime is the handler's per-request occupancy of the single
	// dispatch thread; it caps sustainable throughput at 1/serviceTime.
	serviceTime = 200 * time.Microsecond
	// budget is the per-request deadline when shedding is on: well above
	// the unloaded round trip, an order of magnitude below the backlog
	// drain time past saturation.
	budget = 25 * time.Millisecond
	// ringDepth sizes the server's RX rings to hold the whole overload
	// backlog, so ring drops don't mask the shed-policy comparison.
	ringDepth = 16384
)

// Config parametrizes one functional overload run.
type Config struct {
	// OfferedMultiple is the offered load as a multiple of the server's
	// saturation throughput (1/serviceTime); 2.5 offers 2.5x capacity.
	OfferedMultiple float64
	// Duration is how long the client keeps issuing requests.
	Duration time.Duration
	// Shed attaches the deadline budget to every request, arming the
	// server's shed-before-dispatch path.
	Shed bool
	Seed int64
}

// Result is one functional overload run's outcome.
type Result struct {
	Issued    int
	Completed int
	// Shed counts requests the server dropped via the dataplane shed
	// policy (the server's Shed counter: a shed response usually lands
	// after the client's own deadline expired, so counting client-side
	// core.ErrShed results would undercount).
	Shed int
	// Dropped counts requests the client gave up on: its context deadline
	// expired, the server shed it, or a ring overflowed.
	Dropped int
	Errors  int
	P50     time.Duration // completed requests only
	P99     time.Duration
}

// Run executes one functional overload run.
func Run(cfg Config) (*Result, error) {
	if cfg.OfferedMultiple <= 0 {
		cfg.OfferedMultiple = 2.5
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 300 * time.Millisecond
	}
	// Worker-thread model with a single worker: the dispatch thread plays the
	// NIC dispatcher (drains the ring, stamps each request's arrival) and the
	// lone worker plays the server core, so budget spent queueing for the
	// core is visible to the shed policy. Under DispatchThreads the arrival
	// stamp lands at ring dequeue, right before execution, and queue wait
	// hides in the RX ring where ShedDecision cannot see it.
	fab := fabric.NewFabric()
	r, err := newRig(fab, fab, rigConfig{
		fn: fnWork, name: "overload.work", service: serviceTime,
		server: core.ServerConfig{Threading: core.WorkerThreads, Workers: 1, WorkerQueue: ringDepth},
	})
	if err != nil {
		return nil, err
	}
	defer r.close()
	cli, srv := r.cli, r.srv

	offeredRPS := cfg.OfferedMultiple * float64(time.Second) / float64(serviceTime)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	res := &Result{}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		wg        sync.WaitGroup
	)
	payload := []byte("overload")
	issue := func() {
		res.Issued++
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			var err error
			if cfg.Shed {
				ctx, cancel := context.WithTimeout(context.Background(), budget)
				defer cancel()
				_, err = cli.CallContext(ctx, fnWork, payload)
			} else {
				_, err = cli.Call(fnWork, payload)
			}
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				latencies = append(latencies, time.Since(start))
				res.Completed++
			case errors.Is(err, core.ErrShed),
				errors.Is(err, context.DeadlineExceeded),
				errors.Is(err, fabric.ErrRingFull):
				res.Dropped++
			default:
				res.Errors++
			}
		}()
	}
	// Open-loop pacing against an absolute Poisson schedule: time.Sleep
	// routinely oversleeps at sub-millisecond gaps, so sleeping per gap
	// would silently cut the offered rate severalfold. Issuing every
	// arrival whose scheduled time has passed lets bursts catch the
	// schedule up after each oversleep, keeping the mean rate honest.
	start := time.Now()
	next := start
	for {
		now := time.Now()
		if now.Sub(start) >= cfg.Duration {
			break
		}
		if now.Before(next) {
			time.Sleep(next.Sub(now))
			continue
		}
		issue()
		next = next.Add(time.Duration(-math.Log(1-rng.Float64()) / offeredRPS * float64(time.Second)))
	}
	wg.Wait()
	// Count sheds at the server: a shed verdict means the budget had already
	// expired, so the shed response usually arrives after the client's own
	// context deadline fired and the client records a Dropped, not ErrShed.
	res.Shed = int(srv.Shed.Load())

	res.P50, res.P99 = latPercentiles(latencies)
	if res.Completed == 0 {
		return nil, fmt.Errorf("overload: no requests completed (issued %d)", res.Issued)
	}
	return res, nil
}
