// Package workload generates the request streams used throughout Dagger's
// evaluation: Zipfian key popularity (the MICA/memcached experiments use
// skew 0.99 and 0.9999), set/get operation mixes, per-service RPC size
// distributions, and open-loop arrival processes.
package workload

import (
	"math"
	"math/rand"
)

// Zipf draws items in [0, n) with Zipfian popularity of parameter theta,
// using the Gray et al. rejection-free method popularized by YCSB. Unlike
// math/rand's Zipf it supports theta < 1 exponents expressed the way the KVS
// literature (and the Dagger paper) quotes them: skewness 0.99 means
// P(rank k) ∝ 1/k^0.99.
type Zipf struct {
	rng   *rand.Rand
	n     uint64
	theta float64

	alpha, zetan, eta float64
}

// NewZipf creates a generator over [0, n) with skew theta in [0, 1).
// theta = 0 degenerates to uniform.
func NewZipf(rng *rand.Rand, n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("workload: zipf over empty domain")
	}
	if theta < 0 || theta >= 1 {
		panic("workload: zipf theta must be in [0,1)")
	}
	z := &Zipf{rng: rng, n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	// Direct summation for the sizes we use; for very large n switch to the
	// incremental approximation to keep construction fast.
	if n <= 1_000_000 {
		sum := 0.0
		for i := uint64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	// Euler–Maclaurin style approximation: exact head + integral tail.
	const head = 1_000_000
	sum := zeta(head, theta)
	// Integral of x^-theta from head to n.
	sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(head), 1-theta)) / (1 - theta)
	return sum
}

// Next returns the next sample in [0, n), where 0 is the most popular rank.
func (z *Zipf) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}
