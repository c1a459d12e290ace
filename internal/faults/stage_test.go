package faults

import (
	"slices"
	"testing"
)

// recSink is a recording Sink over a bounded queue of item ids. Clones are
// the original's id + cloneMark so their placement is visible in the queue.
type recSink struct {
	capacity  int // 0 = unbounded
	catch     bool
	queue     []int
	discarded []int
	corrupted []int
}

const cloneMark = 1000

func (s *recSink) Admit(id int) bool {
	if s.capacity > 0 && len(s.queue) >= s.capacity {
		return false
	}
	s.queue = append(s.queue, id)
	return true
}
func (s *recSink) Discard(id int)   { s.discarded = append(s.discarded, id) }
func (s *recSink) Clone(id int) int { return id + cloneMark }
func (s *recSink) Corrupt(id int, _ uint32) bool {
	s.corrupted = append(s.corrupted, id)
	return s.catch
}

// only returns an injector whose first verdict has the given class (and, for
// Delay, the given hold), found by walking seeds of an all-one-class config.
func only(t *testing.T, class Class, arg uint32) *Injector {
	t.Helper()
	rates := map[Class]Rates{
		Deliver:    {},
		Drop:       {Drop: RateDenominator},
		Duplicate:  {Duplicate: RateDenominator},
		Delay:      {Delay: RateDenominator},
		Reorder:    {Reorder: RateDenominator},
		CorruptBit: {Corrupt: RateDenominator},
	}[class]
	for seed := uint64(0); seed < 256; seed++ {
		cfg := Config{Seed: seed, Rates: rates}
		if v := VerdictAt(cfg, 0); v.Class == class && (class != Delay || v.Arg == arg) {
			inj, err := NewInjector(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return inj
		}
	}
	t.Fatalf("no seed draws %v(%d) first", class, arg)
	return nil
}

// step is one Deliver(id) executed under a scripted verdict, after the
// consumer pops `pop` items off the queue's head.
type step struct {
	class Class
	arg   uint32
	id    int
	pop   int
	want  bool // Deliver's result
}

type tally struct{ drops, dups, delays, corrupts, corruptDrops uint64 }

func TestStageVerdicts(t *testing.T) {
	cases := []struct {
		name      string
		capacity  int
		catch     bool
		steps     []step
		queue     []int // queue after the steps
		flushed   []int // queue after a final Flush (nil = same as queue)
		discarded []int // after the final Flush
		tally     tally
	}{
		{name: "deliver",
			steps: []step{{Deliver, 0, 1, 0, true}, {Deliver, 0, 2, 0, true}},
			queue: []int{1, 2}},
		{name: "deliver refused under drop is discarded", capacity: 1,
			steps: []step{{Deliver, 0, 1, 0, true}, {Deliver, 0, 2, 0, false}},
			queue: []int{1}, discarded: []int{2}},
		{name: "drop is silent to the producer",
			steps:     []step{{Drop, 0, 1, 0, true}},
			discarded: []int{1}, tally: tally{drops: 1}},
		{name: "corrupt caught", catch: true,
			steps:     []step{{CorruptBit, 0, 1, 0, true}},
			discarded: []int{1}, tally: tally{corrupts: 1, corruptDrops: 1}},
		{name: "corrupt escaped is admitted",
			steps: []step{{CorruptBit, 0, 1, 0, true}},
			queue: []int{1}, tally: tally{corrupts: 1}},
		{name: "duplicate lands right behind its original",
			steps: []step{{Duplicate, 0, 1, 0, true}, {Deliver, 0, 2, 0, true}},
			queue: []int{1, 1 + cloneMark, 2}, tally: tally{dups: 1}},
		{name: "duplicate copy refused is discarded uncounted", capacity: 1,
			steps: []step{{Duplicate, 0, 1, 0, true}},
			queue: []int{1}, discarded: []int{1 + cloneMark}},
		{name: "duplicate into a full queue", capacity: 1,
			steps: []step{{Deliver, 0, 9, 0, true}, {Duplicate, 0, 1, 0, false}},
			queue: []int{9}, discarded: []int{1, 1 + cloneMark}},
		{name: "reorder swaps with its successor",
			steps: []step{{Reorder, 0, 1, 0, true}, {Deliver, 0, 2, 0, true}, {Deliver, 0, 3, 0, true}},
			queue: []int{2, 1, 3}, tally: tally{delays: 1}},
		{name: "holds age per deliver and release when due, not in hold order",
			steps: []step{{Delay, 3, 1, 0, true}, {Delay, 1, 2, 0, true},
				{Deliver, 0, 3, 0, true}, {Deliver, 0, 4, 0, true}},
			queue: []int{3, 2, 4, 1}, tally: tally{delays: 2}},
		{name: "holds due together release in hold order",
			steps: []step{{Delay, 2, 1, 0, true}, {Delay, 1, 2, 0, true}, {Deliver, 0, 3, 0, true}},
			queue: []int{3, 1, 2}, tally: tally{delays: 2}},
		{name: "flush releases in hold order",
			steps:   []step{{Delay, 4, 1, 0, true}, {Delay, 4, 2, 0, true}, {Delay, 4, 3, 0, true}},
			flushed: []int{1, 2, 3}, tally: tally{delays: 3}},
		{name: "due release refused under drop is discarded", capacity: 1,
			steps: []step{{Reorder, 0, 1, 0, true}, {Deliver, 0, 2, 0, true}},
			queue: []int{2}, discarded: []int{1}, tally: tally{delays: 1}},
		{name: "flush never re-holds", capacity: 1,
			steps:   []step{{Delay, 4, 1, 0, true}, {Delay, 4, 2, 0, true}},
			flushed: []int{1}, discarded: []int{2}, tally: tally{delays: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := &recSink{capacity: tc.capacity, catch: tc.catch}
			s := NewStage[int](sink)
			for i, st := range tc.steps {
				sink.queue = sink.queue[st.pop:]
				// Script the verdict without SetInjector's flush.
				s.inj = only(t, st.class, st.arg)
				if got := s.Deliver(st.id); got != st.want {
					t.Fatalf("step %d: Deliver(%d) under %v = %v, want %v", i, st.id, st.class, got, st.want)
				}
			}
			if !slices.Equal(sink.queue, tc.queue) {
				t.Fatalf("queue = %v, want %v", sink.queue, tc.queue)
			}
			s.Flush()
			if len(s.held) != 0 {
				t.Fatalf("flush left %d items held", len(s.held))
			}
			want := tc.flushed
			if want == nil {
				want = tc.queue
			}
			if !slices.Equal(sink.queue, want) {
				t.Fatalf("queue after flush = %v, want %v", sink.queue, want)
			}
			if !slices.Equal(sink.discarded, tc.discarded) {
				t.Fatalf("discarded = %v, want %v", sink.discarded, tc.discarded)
			}
			got := tally{s.Drops.Load(), s.Dups.Load(), s.Delays.Load(), s.Corrupts.Load(), s.CorruptDrops.Load()}
			if got != tc.tally {
				t.Fatalf("counters = %+v, want %+v", got, tc.tally)
			}
			if uint64(len(sink.corrupted)) != tc.tally.corrupts {
				t.Fatalf("Corrupt ran on %v, want %d calls", sink.corrupted, tc.tally.corrupts)
			}
		})
	}
}

// An idle stage admits directly; installing or removing an injector flushes
// what the previous one held; DiscardHeld recycles without admitting.
func TestStageInjectorLifecycle(t *testing.T) {
	sink := &recSink{}
	s := NewStage[int](sink)
	if s.Active() || !s.Deliver(1) {
		t.Fatal("idle stage did not admit directly")
	}
	s.SetInjector(only(t, Delay, 4))
	if !s.Active() || !s.Deliver(2) || len(sink.queue) != 1 {
		t.Fatalf("delay verdict not held: queue %v", sink.queue)
	}
	s.SetInjector(nil)
	if s.Active() || !slices.Equal(sink.queue, []int{1, 2}) {
		t.Fatalf("uninstall did not flush the held item: queue %v", sink.queue)
	}
	s.SetInjector(only(t, Delay, 4))
	s.Deliver(3)
	s.DiscardHeld()
	if !slices.Equal(sink.queue, []int{1, 2}) || !slices.Equal(sink.discarded, []int{3}) || len(s.held) != 0 {
		t.Fatalf("DiscardHeld: queue %v discarded %v held %d", sink.queue, sink.discarded, len(s.held))
	}
}

// nullSink takes everything and records nothing, so only the stage's own
// allocations are measured.
type nullSink struct{}

func (nullSink) Admit(int) bool           { return true }
func (nullSink) Discard(int)              {}
func (nullSink) Clone(id int) int         { return id }
func (nullSink) Corrupt(int, uint32) bool { return true }

func TestStageDeliverZeroAlloc(t *testing.T) {
	inj, err := NewInjector(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewStage[int](nullSink{})
	s.SetInjector(inj)
	// Warm the held list to its steady-state capacity first.
	for i := 0; i < 1000; i++ {
		s.Deliver(i)
	}
	if allocs := testing.AllocsPerRun(1000, func() { s.Deliver(7) }); allocs != 0 {
		t.Fatalf("Deliver allocates %.1f/op with every verdict class in play, want 0", allocs)
	}
}
