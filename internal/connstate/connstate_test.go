package connstate

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	c := New[int](5)
	if c.size != 8 {
		t.Fatalf("size = %d, want 8 (rounded to power of two)", c.size)
	}
	// Keys whose connection ids share LSBs land in the same slot regardless
	// of source address; distinct LSBs never collide.
	if c.slot(Key(1, 3)) != c.slot(Key(2, 3)) {
		t.Fatal("same conn id, different src mapped to different slots")
	}
	if c.slot(Key(1, 3)) == c.slot(Key(1, 4)) {
		t.Fatal("conn ids 3 and 4 collided in a size-8 cache")
	}
	if c.slot(Key(0, 3)) != c.slot(Key(0, 11)) {
		t.Fatal("conn ids 3 and 11 must alias in a size-8 cache")
	}
}

func TestLifecycleSentinels(t *testing.T) {
	c := New[string](4)
	k := Key(9, 1)
	if err := c.Open(k, "a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Open(k, "b"); !errors.Is(err, ErrAlreadyOpen) {
		t.Fatalf("double open: %v, want ErrAlreadyOpen", err)
	}
	if _, _, err := c.Lookup(Key(9, 2)); !errors.Is(err, ErrNotOpen) {
		t.Fatalf("lookup of unopened: %v, want ErrNotOpen", err)
	}
	if err := c.Close(Key(9, 2)); !errors.Is(err, ErrNotOpen) {
		t.Fatalf("close of unopened: %v, want ErrNotOpen", err)
	}
	if err := c.Close(k); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Lookup(k); !errors.Is(err, ErrNotOpen) {
		t.Fatalf("lookup after close: %v, want ErrNotOpen", err)
	}
	st := c.Stats()
	if st.Opens != 1 || st.Closes != 1 {
		t.Fatalf("stats = %+v, want 1 open / 1 close", st)
	}
}

// TestThrashPingPong pins the direct-mapped conflict dance exactly: two keys
// aliasing one slot ping-pong (miss, re-cache, evict) with every counter
// accounted for.
func TestThrashPingPong(t *testing.T) {
	c := New[int](4)
	a, b := Key(0, 1), Key(0, 5) // same LSBs in a size-4 cache
	if err := c.Open(a, 10); err != nil {
		t.Fatal(err)
	}
	if err := c.Open(b, 20); err != nil {
		t.Fatal(err)
	}
	// Opening b displaced a.
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions after conflicting open = %d, want 1", st.Evictions)
	}
	steps := []struct {
		key  uint64
		want int
	}{{a, 10}, {b, 20}, {a, 10}, {b, 20}}
	for i, s := range steps {
		v, hit, err := c.Lookup(s.key)
		if err != nil || v != s.want {
			t.Fatalf("step %d: v=%v err=%v", i, v, err)
		}
		if hit {
			t.Fatalf("step %d: ping-pong lookup hit; every access must miss", i)
		}
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 4 || st.Evictions != 5 {
		t.Fatalf("stats = %+v, want 0 hits / 4 misses / 5 evictions", st)
	}
	// A repeated lookup of the most recent key hits without evicting.
	if _, hit, _ := c.Lookup(b); !hit {
		t.Fatal("re-cached entry did not hit")
	}
	if st := c.Stats(); st.Hits != 1 || st.Evictions != 5 {
		t.Fatalf("stats after hit = %+v", st)
	}
	if got := c.HitRate(); got != 0.2 {
		t.Fatalf("hit rate = %v, want 0.2", got)
	}
}

// Property: for any open/lookup sequence, Lookup always returns the value
// most recently opened for that key, regardless of cache conflicts, and the
// backing store tracks the open population exactly.
func TestCoherenceProperty(t *testing.T) {
	f := func(ids []uint8) bool {
		c := New[uint16](8)
		model := map[uint64]uint16{}
		for i, raw := range ids {
			k := Key(uint32(raw%3), uint32(raw%32))
			if _, open := model[k]; !open {
				if err := c.Open(k, uint16(i)); err != nil {
					return false
				}
				model[k] = uint16(i)
			} else {
				got, _, err := c.Lookup(k)
				if err != nil || got != model[k] {
					return false
				}
			}
		}
		return c.OpenCount() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	c := New[int](4)
	for id := uint32(1); id <= 3; id++ {
		if err := c.Open(Key(0, id), int(id)); err != nil {
			t.Fatal(err)
		}
	}
	c.Lookup(Key(0, 1))
	before := c.Stats()
	c.Reset()
	if c.OpenCount() != 0 {
		t.Fatalf("open count after reset = %d", c.OpenCount())
	}
	if _, _, err := c.Lookup(Key(0, 1)); !errors.Is(err, ErrNotOpen) {
		t.Fatalf("lookup after reset: %v, want ErrNotOpen", err)
	}
	if c.Stats() != before {
		t.Fatalf("reset touched monitor counters: %+v != %+v", c.Stats(), before)
	}
	// The table is usable again and slots really were invalidated: a fresh
	// open of a previously cached id must not be mistaken for the old entry.
	if err := c.Open(Key(0, 1), 99); err != nil {
		t.Fatal(err)
	}
	v, hit, err := c.Lookup(Key(0, 1))
	if err != nil || !hit || v != 99 {
		t.Fatalf("post-reset lookup = (%v, %v, %v)", v, hit, err)
	}
}

func TestLimits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized cache did not panic")
		}
	}()
	New[int](MaxCachedConnections + 1)
}

// TestLookupZeroAlloc pins the lookup path allocation-free on both hits and
// re-caching misses — it runs on every request the fabric steers.
func TestLookupZeroAlloc(t *testing.T) {
	c := New[uint16](4)
	a, b := Key(1, 1), Key(1, 5)
	c.Open(a, 1)
	c.Open(b, 2)
	if n := testing.AllocsPerRun(1000, func() {
		c.Lookup(a) // ping-pong: every call is a re-caching miss
		c.Lookup(b)
		c.Lookup(b) // and this one a hit
	}); n != 0 {
		t.Fatalf("Lookup allocates %v per run, want 0", n)
	}
}
