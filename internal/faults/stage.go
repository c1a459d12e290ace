package faults

import (
	"dagger/internal/metrics"
)

// Sink is the substrate half of a fault stage: the queue a Stage admits
// into, seen through the four things a verdict can do to an item. Queues
// that recycle storage (the fabric's pooled frames) implement Discard and
// Clone for real; value-typed models make them a no-op and an identity.
type Sink[T any] interface {
	// Admit offers item to the queue past the fault stage — no fresh verdict
	// is drawn — and reports whether the queue took it. On true the queue
	// owns item.
	Admit(item T) bool
	// Discard disposes of an item the stage owns and will never admit.
	Discard(item T)
	// Clone returns an independent copy of item for a Duplicate verdict.
	Clone(item T) T
	// Corrupt applies a CorruptBit verdict (arg is Verdict.Arg) to item and
	// reports whether the substrate's integrity check caught the damage.
	Corrupt(item T, arg uint32) (caught bool)
}

// held is an item a Delay or Reorder verdict is holding back; it releases
// after remaining further Delivers.
type held[T any] struct {
	item      T
	remaining uint32
}

// Stage is the one executor of fault verdicts: every substrate's
// queue-admission point (fabric ring admission, the nicmodel RX buffer) is a
// Stage over its own Sink, so verdict semantics — what a duplicate's order
// is, when a held item ages and releases, what a refused item becomes —
// exist once and cross-substrate parity holds by construction. Both queues
// drop on overflow, so the stage discards whatever its queue refuses. A
// Stage allocates only when its held list grows and is not safe for
// concurrent use: substrates with concurrent producers lock around it, which
// also makes the verdict sequence deterministic under a serial driver.
type Stage[T any] struct {
	sink Sink[T]
	inj  *Injector
	held []held[T]

	// Verdicts executed at this stage. Dups counts copies the queue actually
	// took; CorruptDrops counts corrupted items the integrity check caught,
	// which the chaos gates assert equals Corrupts (zero escapes).
	Drops, Dups, Delays, Corrupts, CorruptDrops metrics.Counter
}

// NewStage returns an idle stage (no injector) in front of sink.
func NewStage[T any](sink Sink[T]) *Stage[T] {
	return &Stage[T]{sink: sink}
}

// Describe registers the stage's counters into reg as prefix+"dropped",
// "duplicated", "delayed", "corrupted" and "corrupt.dropped".
func (s *Stage[T]) Describe(reg *metrics.Registry, prefix string) {
	reg.RegisterCounter(prefix+"dropped", &s.Drops)
	reg.RegisterCounter(prefix+"duplicated", &s.Dups)
	reg.RegisterCounter(prefix+"delayed", &s.Delays)
	reg.RegisterCounter(prefix+"corrupted", &s.Corrupts)
	reg.RegisterCounter(prefix+"corrupt.dropped", &s.CorruptDrops)
}

// Active reports whether an injector is installed. Deliver on an idle stage
// simply admits, so only a substrate whose idle admission is hot (the
// fabric: every RPC pays it) needs to test this, to keep that path a direct
// call rather than a trip through the Sink interface.
func (s *Stage[T]) Active() bool { return s.inj != nil }

// SetInjector installs inj (nil uninstalls). Items a previous injector's
// verdicts were still holding are flushed first, so none is stranded across
// the switch.
func (s *Stage[T]) SetInjector(inj *Injector) {
	s.Flush()
	s.inj = inj
}

// Deliver draws one verdict and executes it on item, then releases every
// held item that came due, in hold order. It owns item on every path and
// returns false only when the queue refused item itself; fault losses return
// true, because the producer of an item the chaos plane ate learns no more
// than the sender of a frame a real link lost.
func (s *Stage[T]) Deliver(item T) bool {
	if s.inj == nil {
		return s.admit(item)
	}
	v := s.inj.Next()
	// Age before executing the verdict, release after it: a Reorder then
	// swaps an item with its successor instead of riding alongside it.
	for i := range s.held {
		s.held[i].remaining--
	}
	ok := true
	switch v.Class {
	case Drop:
		s.Drops.Inc()
		s.sink.Discard(item)
	case CorruptBit:
		s.Corrupts.Inc()
		if s.sink.Corrupt(item, v.Arg) {
			s.CorruptDrops.Inc()
			s.sink.Discard(item)
		} else {
			ok = s.admit(item)
		}
	case Duplicate:
		// Clone before admitting: the queue — and possibly a concurrent
		// consumer — owns the original the moment Admit succeeds.
		dup := s.sink.Clone(item)
		ok = s.admit(item)
		if s.sink.Admit(dup) {
			s.Dups.Inc()
		} else {
			s.sink.Discard(dup)
		}
	case Delay, Reorder:
		s.Delays.Inc()
		s.held = append(s.held, held[T]{item: item, remaining: max(v.Arg, 1)})
	default:
		ok = s.admit(item)
	}
	s.release()
	return ok
}

// admit offers item to the queue, discarding it if the queue refuses it.
func (s *Stage[T]) admit(item T) bool {
	if s.sink.Admit(item) {
		return true
	}
	s.sink.Discard(item)
	return false
}

// release admits, in hold order, every held item that has come due.
func (s *Stage[T]) release() {
	kept := s.held[:0]
	for _, h := range s.held {
		if h.remaining > 0 {
			kept = append(kept, h)
		} else {
			s.admit(h.item)
		}
	}
	clear(s.held[len(kept):])
	s.held = kept
}

// Flush admits every held item now, in hold order, discarding any the queue
// refuses.
func (s *Stage[T]) Flush() { s.drain(true) }

// DiscardHeld discards every held item without admitting it, for a
// substrate shutting down after its queue's consumers are gone.
func (s *Stage[T]) DiscardHeld() { s.drain(false) }

func (s *Stage[T]) drain(admit bool) {
	for _, h := range s.held {
		if !admit || !s.sink.Admit(h.item) {
			s.sink.Discard(h.item)
		}
	}
	clear(s.held)
	s.held = s.held[:0]
}
