package workload

import (
	"math"
	"math/rand"

	"dagger/internal/sim"
)

// PoissonArrival models a memoryless open-loop client at a given mean rate.
type PoissonArrival struct {
	rng  *rand.Rand
	rate float64 // requests per second
}

// NewPoissonArrival creates a Poisson arrival process at rate requests/sec.
func NewPoissonArrival(rng *rand.Rand, rate float64) *PoissonArrival {
	if rate <= 0 {
		panic("workload: arrival rate must be positive")
	}
	return &PoissonArrival{rng: rng, rate: rate}
}

// NextGap samples an exponential inter-arrival gap.
func (p *PoissonArrival) NextGap() sim.Time {
	gapSec := -math.Log(1-p.rng.Float64()) / p.rate
	gap := sim.Time(gapSec * 1e9)
	if gap < 1 {
		gap = 1
	}
	return gap
}
