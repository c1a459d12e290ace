package retry

import (
	"testing"
	"time"
)

func TestBackoffMonotoneAndCapped(t *testing.T) {
	p := Policy{MaxAttempts: 8, Base: time.Millisecond, Max: 8 * time.Millisecond, Multiplier: 2}
	prev := time.Duration(0)
	for a := 1; a <= 8; a++ {
		d := p.Backoff(a)
		if d < prev {
			t.Fatalf("attempt %d: backoff %v < previous %v (no jitter set)", a, d, prev)
		}
		if d > p.Max {
			t.Fatalf("attempt %d: backoff %v exceeds cap %v", a, d, p.Max)
		}
		prev = d
	}
	if got := p.Backoff(1); got != time.Millisecond {
		t.Fatalf("first retry delay = %v, want Base", got)
	}
	if got := p.Backoff(8); got != 8*time.Millisecond {
		t.Fatalf("late retry delay = %v, want cap", got)
	}
	if p.Backoff(0) != 0 || p.Backoff(-3) != 0 {
		t.Fatal("non-positive attempts must not delay")
	}
}

func TestBackoffJitterDeterministic(t *testing.T) {
	p := Policy{
		MaxAttempts: 3, Base: time.Millisecond, Max: 50 * time.Millisecond,
		Multiplier: 2, Jitter: 0.2, Seed: 0x9E3779B97F4A7C15,
	}
	q := p
	for a := 1; a <= 5; a++ {
		if p.Backoff(a) != q.Backoff(a) {
			t.Fatalf("attempt %d: equal policies disagree", a)
		}
	}
	// Jitter shrinks the delay by at most the jitter fraction.
	noJitter := p
	noJitter.Jitter = 0
	for a := 1; a <= 5; a++ {
		d, full := p.Backoff(a), noJitter.Backoff(a)
		if d > full {
			t.Fatalf("attempt %d: jittered %v > unjittered %v", a, d, full)
		}
		if min := time.Duration(float64(full) * (1 - p.Jitter)); d < min {
			t.Fatalf("attempt %d: jittered %v below floor %v", a, d, min)
		}
	}
	// Different seeds give different schedules (with overwhelming odds).
	other := p
	other.Seed++
	same := true
	for a := 1; a <= 5; a++ {
		if p.Backoff(a) != other.Backoff(a) {
			same = false
		}
	}
	if same {
		t.Fatal("distinct seeds produced identical schedules")
	}
}

func TestNextDelayBudgetAware(t *testing.T) {
	p := Policy{MaxAttempts: 3, Base: time.Millisecond, Max: 10 * time.Millisecond, Multiplier: 2}
	if _, ok := p.NextDelayScaled(1, 0, 1); !ok {
		t.Fatal("no deadline must always allow a retry")
	}
	if _, ok := p.NextDelayScaled(1, time.Second, 1); !ok {
		t.Fatal("ample budget refused")
	}
	if _, ok := p.NextDelayScaled(1, 500*time.Microsecond, 1); ok {
		t.Fatal("retry allowed with budget smaller than the delay")
	}
	// Budget covers the delay but leaves no room for the call itself.
	d := p.Backoff(2)
	if _, ok := p.NextDelayScaled(2, d+p.Base/2, 1); ok {
		t.Fatal("retry allowed with no headroom for the call")
	}
}

// Regression: Jitter > 1 used to scale delays negative (d *= 1 - Jitter*frac
// with frac near 1), making "backoff" fire immediately. The fraction is now
// clamped to [0, 1].
func TestBackoffJitterClamped(t *testing.T) {
	p := Policy{MaxAttempts: 5, Base: time.Millisecond, Max: 50 * time.Millisecond,
		Multiplier: 2, Jitter: 3.5, Seed: 1}
	for a := 1; a <= 20; a++ {
		if d := p.Backoff(a); d < 0 {
			t.Fatalf("attempt %d: negative backoff %v from Jitter > 1", a, d)
		}
	}
	// Clamped jitter must behave exactly like Jitter = 1.
	one := p
	one.Jitter = 1
	for a := 1; a <= 20; a++ {
		if p.Backoff(a) != one.Backoff(a) {
			t.Fatalf("attempt %d: Jitter 3.5 and Jitter 1 schedules diverge", a)
		}
	}
}

// Regression: with Base <= 0 the headroom check degenerated to
// remaining <= d+0, admitting retries whose budget expires on arrival. A
// positive headroom floor is now required.
func TestNextDelayHeadroomFloor(t *testing.T) {
	p := Policy{MaxAttempts: 3, Base: 0, Max: 10 * time.Millisecond, Multiplier: 2}
	// Base 0 means Backoff is 0; a 1ns budget used to pass (1 > 0+0).
	if _, ok := p.NextDelayScaled(1, time.Nanosecond, 1); ok {
		t.Fatal("doomed retry admitted with zero-Base policy")
	}
	if _, ok := p.NextDelayScaled(1, 50*time.Microsecond, 1); ok {
		t.Fatal("retry admitted below the headroom floor")
	}
	if _, ok := p.NextDelayScaled(1, time.Second, 1); !ok {
		t.Fatal("ample budget refused under zero-Base policy")
	}
}

func TestScaledBackoff(t *testing.T) {
	p := Policy{MaxAttempts: 5, Base: time.Millisecond, Max: 8 * time.Millisecond, Multiplier: 2}
	for a := 1; a <= 5; a++ {
		base := p.Backoff(a)
		if got := p.ScaledBackoff(a, 1); got != base {
			t.Fatalf("attempt %d: scale 1 changed delay %v -> %v", a, base, got)
		}
		if got := p.ScaledBackoff(a, 0); got != base {
			t.Fatalf("attempt %d: scale 0 not treated as 1", a)
		}
		if got := p.ScaledBackoff(a, 4); got != 4*base {
			t.Fatalf("attempt %d: scale 4 = %v, want %v", a, got, 4*base)
		}
	}
	// The congestion scale intentionally exceeds the uncongested cap.
	if got := p.ScaledBackoff(5, 4); got != 32*time.Millisecond {
		t.Fatalf("scaled capped delay = %v, want 32ms", got)
	}
	// The scaled delay is what the budget check sees.
	d := p.Backoff(1) // 1ms
	if _, ok := p.NextDelayScaled(1, 2*d+p.Base/2, 4); ok {
		t.Fatal("budget check ignored the congestion scale")
	}
	if _, ok := p.NextDelayScaled(1, 10*d, 4); !ok {
		t.Fatal("ample budget refused under scale")
	}
}
