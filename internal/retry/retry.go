// Package retry implements the small, deterministic retry policy used by RPC
// clients and the reliable transport: capped exponential backoff with seeded
// jitter, aware of the caller's remaining deadline budget.
//
// Determinism matters here: the simulation and test harnesses replay traffic
// and expect identical schedules, so jitter comes from a splitmix64 stream
// seeded by the policy (never math/rand, per daggervet's simdeterminism rule).
package retry

import (
	"errors"
	"time"
)

// Policy describes a backoff schedule. The zero value is not useful; set at
// least MaxAttempts, Base, Max and Multiplier.
type Policy struct {
	// MaxAttempts bounds the total number of tries (first call included).
	MaxAttempts int
	// Base is the delay before the first retry.
	Base time.Duration
	// Max caps the exponentially growing delay.
	Max time.Duration
	// Multiplier scales the delay between attempts (typically 2).
	Multiplier float64
	// Jitter is the fraction of the computed delay randomized away, in
	// [0, 1]. 0.2 means the delay is drawn from [0.8d, d].
	Jitter float64
	// Seed feeds the deterministic jitter stream. Two policies with equal
	// fields produce identical schedules.
	Seed uint64
}

// ErrBudgetExhausted reports that the remaining deadline budget cannot absorb
// the next backoff delay, so retrying would only produce doomed work.
var ErrBudgetExhausted = errors.New("retry: deadline budget exhausted")

// Backoff returns the delay before retry attempt `attempt` (1-based: attempt
// 1 is the first retry). The schedule is exponential from Base with the
// policy's cap and deterministic jitter; attempts < 1 return 0.
func (p Policy) Backoff(attempt int) time.Duration {
	if attempt < 1 || p.Base <= 0 {
		return 0
	}
	d := float64(p.Base)
	mult := p.Multiplier
	if mult < 1 {
		mult = 1
	}
	for i := 1; i < attempt; i++ {
		d *= mult
		if p.Max > 0 && d >= float64(p.Max) {
			d = float64(p.Max)
			break
		}
	}
	if p.Max > 0 && d > float64(p.Max) {
		d = float64(p.Max)
	}
	if p.Jitter > 0 {
		// Deterministic draw in [1-Jitter, 1] from a splitmix64 stream
		// keyed by (Seed, attempt). Jitter is clamped to [0, 1]: a larger
		// value would scale the delay negative, and a negative delay fires
		// a retry immediately — the opposite of backing off.
		jitter := p.Jitter
		if jitter > 1 {
			jitter = 1
		}
		u := splitmix64(p.Seed + uint64(attempt))
		frac := float64(u>>11) / (1 << 53) // [0, 1)
		d *= 1 - jitter*frac
	}
	return time.Duration(d)
}

// ScaledBackoff is Backoff with an integer congestion multiplier applied
// after the cap: a connection whose peer reported congestion
// (dataplane.BackoffScale of its occupancy hint) waits scale times longer
// between attempts, deliberately beyond Policy.Max — the cap bounds the
// uncongested schedule, not the congestion reaction. scale < 1 is treated
// as 1.
func (p Policy) ScaledBackoff(attempt, scale int) time.Duration {
	d := p.Backoff(attempt)
	if scale > 1 {
		d *= time.Duration(scale)
	}
	return d
}

// minHeadroom is the floor on the work headroom NextDelayScaled demands beyond
// the backoff delay. A Policy with Base <= 0 would otherwise demand zero
// headroom and admit retries whose budget expires the moment they arrive.
const minHeadroom = 100 * time.Microsecond

// NextDelayScaled returns the backoff before retry `attempt`, scaled by a
// congestion multiplier (see ScaledBackoff), and whether the caller's
// remaining budget can absorb that delay with headroom for the call itself.
// The budget check applies to the scaled delay, so a congested connection
// gives up on doomed retries sooner. remaining <= 0 means no deadline:
// always ok.
func (p Policy) NextDelayScaled(attempt int, remaining time.Duration, scale int) (time.Duration, bool) {
	d := p.ScaledBackoff(attempt, scale)
	if remaining <= 0 {
		return d, true
	}
	// Require the budget to cover the delay plus headroom for the call
	// itself — at least one base delay, floored at minHeadroom so a
	// zero-Base policy cannot admit retries that are doomed on arrival.
	headroom := p.Base
	if headroom < minHeadroom {
		headroom = minHeadroom
	}
	if remaining <= d+headroom {
		return d, false
	}
	return d, true
}

// splitmix64 advances the splitmix64 generator one step from x.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
