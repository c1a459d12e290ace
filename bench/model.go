package main

import (
	"fmt"

	"dagger/internal/experiments"
	"dagger/internal/interconnect"
)

// model_echo: the timing model at the three configurations the paper's
// headline numbers come from. The simulated numbers are deterministic, so
// they are not timed metrics: the pinned run below checks them bit-exact
// (a simulator refactor must leave them identical) and the traced run
// reports them in simulated units. What the timed window measures is the
// simulator's host speed.

var (
	upiB4 = interconnect.Config{Kind: interconnect.UPI, Batch: 4}
	upiB1 = interconnect.Config{Kind: interconnect.UPI, Batch: 1}
)

// modelConfigs returns the three runs: saturation at 1 thread (Table 3:
// 12.4 Mrps), the 8-thread plateau (Fig. 11 right: 41.7 Mrps), and open
// loop at 2 Mrps offered for the round trip (Table 3: 2.1 us).
func modelConfigs(requests int, seed int64) [3]experiments.EchoConfig {
	return [3]experiments.EchoConfig{
		{Iface: upiB4, Requests: requests, ToR: true, Seed: seed},
		{Iface: upiB4, Threads: 8, Requests: requests, ToR: true, Seed: seed},
		{Iface: upiB1, OfferedRPS: 2e6, Requests: requests, ToR: true, Seed: seed},
	}
}

// modelNumbers are the paper numbers one pinned run yields.
type modelNumbers struct {
	mrps, plateauMrps, rttP50us, rttP99us float64
}

const (
	pinnedRequests = 100_000
	pinnedSeed     = 1
)

// pinned is what the pinned run must reproduce exactly, recorded when this
// benchmark was defined (paper: 12.4 Mrps, 41.7 Mrps, 2.1 us).
var pinned = modelNumbers{
	mrps:        12.342265842532436,
	plateauMrps: 41.64438691966464,
	rttP50us:    2.15,
	rttP99us:    2.368,
}

// runPinned runs the three configs at the pinned seed and size.
func runPinned() (modelNumbers, error) {
	cfgs := modelConfigs(pinnedRequests, pinnedSeed)
	var res [3]*experiments.EchoResult
	for i, c := range cfgs {
		res[i] = experiments.RunEcho(c)
		if res[i].Completed != pinnedRequests || res[i].Dropped != 0 {
			return modelNumbers{}, fmt.Errorf("model config %d: completed %d of %d, dropped %d",
				i, res[i].Completed, pinnedRequests, res[i].Dropped)
		}
	}
	return modelNumbers{
		mrps:        res[0].Mrps(),
		plateauMrps: res[1].Mrps(),
		rttP50us:    res[2].MedianUs(),
		rttP99us:    res[2].P99Us(),
	}, nil
}

// modelSeed derives the seed of timed batch i from the run's seed.
func modelSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// modelBatchRequests is the size of one config's run inside a timed batch;
// a batch runs all three configs, so its cost per simulated RPC is unimodal.
const modelBatchRequests = 1600 // a multiple of the plateau config's 8 threads

// modelCaller runs timed batches of the three configs back to back.
type modelCaller struct {
	seed  int64
	batch int
}

func (m *modelCaller) run(limit int, rec *recorder) {
	end := rec.end()
	for n := 0; n < limit; n++ {
		t0 := now()
		if t0 >= end {
			break
		}
		rec.begin(t0)
		var done, asked uint64
		for _, c := range modelConfigs(modelBatchRequests, modelSeed(m.seed, m.batch)) {
			res := experiments.RunEcho(c)
			asked += modelBatchRequests
			done += uint64(res.Completed)
		}
		m.batch++
		t1 := now()
		rec.attempted += asked
		rec.failed += asked - done
		if done > 0 {
			rec.observe(t0, (t1-t0)/int64(done), done)
		}
	}
	rec.begin(now())
}
