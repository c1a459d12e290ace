package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events reordered at %d: %v", i, v)
		}
	}
}

func TestEngineAfterChains(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			e.After(7, tick)
		}
	}
	e.After(7, tick)
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if e.Now() != 70 {
		t.Fatalf("clock = %v, want 70", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

// Property: however events are scheduled, they fire in nondecreasing time
// order and the clock matches each event's timestamp.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(stamps []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, s := range stamps {
			at := Time(s)
			e.At(at, func() {
				if e.Now() != at {
					t.Errorf("clock %v != event time %v", e.Now(), at)
				}
				fired = append(fired, at)
			})
		}
		e.Run()
		if len(fired) != len(stamps) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceFIFOGrants(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	var order []int
	hold := func(id int, d Time) {
		r.Acquire(func() {
			order = append(order, id)
			e.After(d, r.Release)
		})
	}
	hold(1, 100)
	hold(2, 100)
	hold(3, 10) // queued until t=100
	hold(4, 10)
	e.Run()
	want := []int{1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", order, want)
		}
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("release of idle resource did not panic")
		}
	}()
	e := NewEngine()
	NewResource(e, 1).Release()
}

func TestQueueBoundedDrops(t *testing.T) {
	q := NewQueue(2)
	if !q.Push(1) || !q.Push(2) {
		t.Fatal("push within capacity failed")
	}
	if q.Push(3) {
		t.Fatal("push beyond capacity succeeded")
	}
	if q.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", q.Dropped)
	}
	v, ok := q.Pop()
	if !ok || v.(int) != 1 {
		t.Fatalf("pop = %v, want 1", v)
	}
}

// Property: a queue is FIFO — pop order equals push order for any sequence
// that fits in capacity.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(vals []int) bool {
		q := NewQueue(0)
		for _, v := range vals {
			q.Push(v)
		}
		for _, want := range vals {
			got, ok := q.Pop()
			if !ok || got.(int) != want {
				return false
			}
		}
		_, ok := q.Pop()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQueueStats(t *testing.T) {
	q := NewQueue(0)
	rng := rand.New(rand.NewSource(1))
	max := 0
	n := 0
	for i := 0; i < 1000; i++ {
		if rng.Intn(2) == 0 {
			q.Push(i)
			n++
			if n > max {
				max = n
			}
		} else if n > 0 {
			q.Pop()
			n--
		}
	}
	if q.MaxLen != max {
		t.Fatalf("MaxLen = %d, want %d", q.MaxLen, max)
	}
	if int(q.Enqueued-q.Dequeued) != len(q.items) {
		t.Fatalf("enqueued-dequeued=%d, len=%d", q.Enqueued-q.Dequeued, len(q.items))
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		5:          "5ns",
		1500:       "1.500us",
		2500000:    "2.500ms",
		3000000000: "3.000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}
