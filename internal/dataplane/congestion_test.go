package dataplane

import "testing"

func TestMarkThreshold(t *testing.T) {
	cases := []struct {
		depth, capacity int
		want            bool
	}{
		{0, 16, false},
		{7, 16, false},
		{8, 16, true}, // exactly half
		{15, 16, true},
		{16, 16, true}, // at capacity
		{20, 16, true}, // beyond capacity (racy Len estimates can overshoot)
		{2, 5, false},
		{3, 5, true},  // ceil(5/2)
		{0, 1, false}, // capacity 1, empty: below half
		{1, 1, true},  // capacity 1, occupied
		{5, 0, false},
		{5, -1, false}, // unbounded never marks
		{-1, 16, false},
	}
	for _, c := range cases {
		if got := Mark(c.depth, c.capacity); got != c.want {
			t.Errorf("Mark(%d, %d) = %v, want %v", c.depth, c.capacity, got, c.want)
		}
	}
}

func TestOccupancyHintRange(t *testing.T) {
	if got := OccupancyHint(0, 16); got != 0 {
		t.Errorf("empty queue hint = %d, want 0", got)
	}
	if got := OccupancyHint(5, 0); got != 0 {
		t.Errorf("unbounded queue hint = %d, want 0", got)
	}
	if got := OccupancyHint(16, 16); got != 255 {
		t.Errorf("full queue hint = %d, want 255", got)
	}
	if got := OccupancyHint(100, 16); got != 255 {
		t.Errorf("over-full queue hint = %d, want 255", got)
	}
	prev := uint8(0)
	for d := 0; d <= 64; d++ {
		h := OccupancyHint(d, 64)
		if h < prev {
			t.Fatalf("hint not monotone: OccupancyHint(%d, 64) = %d < %d", d, h, prev)
		}
		prev = h
	}
}

// TestHintAgreesWithMark pins the quantization contract: the one-byte hint
// carries enough information to reconstruct the mark decision exactly, for
// every depth and capacity. The client's hint >= MarkHint and the queue's
// Mark must never disagree or the two ends of the loop see different worlds.
func TestHintAgreesWithMark(t *testing.T) {
	for capacity := 1; capacity <= 257; capacity++ {
		for depth := 0; depth <= capacity+3; depth++ {
			mark := Mark(depth, capacity)
			hint := OccupancyHint(depth, capacity) >= MarkHint
			if mark != hint {
				t.Fatalf("depth %d capacity %d: Mark=%v but hint>=MarkHint=%v",
					depth, capacity, mark, hint)
			}
		}
	}
}

func TestWindowAIMD(t *testing.T) {
	mark := func(size int) int {
		w := NewWindow(size)
		w.OnResponse(1, 0, true, MarkHint)
		return w.Size
	}
	for _, c := range []struct{ size, want int }{{64, 32}, {3, 1}, {1, 1}} {
		if got := mark(c.size); got != c.want {
			t.Errorf("mark on window %d = %d, want %d (halved, never below 1)", c.size, got, c.want)
		}
	}
	w := Window{Size: 64, Max: 128}
	w.OnResponse(1, 0, false, 0)
	if w.Size != 65 {
		t.Errorf("clean on window 64 = %d, want 65", w.Size)
	}
	w = NewWindow(128)
	w.OnResponse(1, 0, false, 0)
	if w.Size != 128 {
		t.Errorf("clean at the cap = %d, want cap 128", w.Size)
	}
	// Decrease must dominate increase: one mark undoes many cleans.
	w = Window{Size: 64, Max: 128}
	for i := 0; i < 31; i++ {
		w.OnResponse(1, 0, false, 0)
	}
	if w.Size != 95 {
		t.Fatalf("31 cleans from 64 = %d, want 95", w.Size)
	}
	if w.OnResponse(2, 0, true, MarkHint); w.Size != 47 {
		t.Fatalf("one mark after growth = %d, want 47", w.Size)
	}
}

// TestWindowEpochGuard pins the loop both substrates share: one halving per
// in-flight window, additive growth on clean responses, and Release freeing
// a slot without a signal.
func TestWindowEpochGuard(t *testing.T) {
	w := NewWindow(8)
	for i := 0; i < 8; i++ {
		if w.Full() {
			t.Fatalf("window full after %d issues, want 8", i)
		}
		w.InFlight++
	}
	if !w.Full() {
		t.Fatal("window of 8 not full with 8 in flight")
	}
	w.OnResponse(1, 8, true, 200) // halves; calls up to seq 8 are this event
	w.OnResponse(2, 8, true, 210) // absorbed by the epoch guard
	if w.Size != 4 || w.Marks != 2 || w.LastHint != 210 || w.InFlight != 6 {
		t.Fatalf("after two marks: %+v, want size 4, 2 marks, hint 210, 6 in flight", w)
	}
	w.OnResponse(9, 9, true, 200) // issued after the halving: a new event
	w.OnResponse(3, 9, false, 0)
	w.Release()
	if w.Size != 3 || w.Cleans != 1 || w.LastHint != 0 || w.InFlight != 3 {
		t.Fatalf("after a new mark, a clean and a release: %+v, want size 3, 1 clean, hint 0, 3 in flight", w)
	}
}

func TestBackoffScale(t *testing.T) {
	cases := []struct {
		hint uint8
		want int
	}{
		{0, 1}, {64, 1}, {127, 1},
		{128, 2}, {160, 2}, {191, 2},
		{192, 4}, {255, 4},
	}
	for _, c := range cases {
		if got := BackoffScale(c.hint); got != c.want {
			t.Errorf("BackoffScale(%d) = %d, want %d", c.hint, got, c.want)
		}
	}
	// A hint below the mark threshold must never scale backoff: the scale
	// only engages once the queue actually reported congestion.
	for h := 0; h < int(MarkHint); h++ {
		if BackoffScale(uint8(h)) != 1 {
			t.Fatalf("BackoffScale(%d) != 1 below MarkHint", h)
		}
	}
}

func TestBackoff(t *testing.T) {
	const maxInt64 = int64(^uint64(0) >> 1)
	cases := []struct {
		base, max int64
		attempt   int
		want      int64
	}{
		{10, 80, 0, 0},              // no attempt, no wait
		{10, 80, -3, 0},             // negative attempt
		{10, 80, 1, 10},             // first retry waits base
		{10, 80, 2, 20},             // doubling
		{10, 80, 3, 40},             //
		{10, 80, 4, 80},             // cap reached exactly
		{10, 80, 5, 80},             // and held
		{10, 50, 3, 40},             //
		{10, 50, 4, 50},             // cap reached mid-doubling (80 > 50)
		{10, 5, 1, 5},               // cap below base
		{0, 80, 3, 0},               // base <= 0 never waits
		{-10, 80, 3, 0},             //
		{1, maxInt64, 64, maxInt64}, // 2^63 would overflow: capped instead
		{1, maxInt64, 63, 1 << 62},
		{3, 1 << 40, 64, 1 << 40},
	}
	for _, c := range cases {
		if got := Backoff(c.base, c.max, c.attempt); got != c.want {
			t.Errorf("Backoff(%d, %d, %d) = %d, want %d", c.base, c.max, c.attempt, got, c.want)
		}
	}
	// The schedule never decreases with the attempt number.
	prev := int64(0)
	for a := 0; a <= 70; a++ {
		d := Backoff(7, 1000, a)
		if d < prev {
			t.Fatalf("attempt %d: %d < previous %d", a, d, prev)
		}
		prev = d
	}
}
