// Package faults is the deterministic fault-injection policy layer shared
// by both substrates: pure, seeded verdict functions with no wall clock, no
// global rand, and no hot-path allocation, in the same design discipline as
// internal/dataplane and internal/connstate. The functional fabric and the
// timing stack's nicmodel each install an Injector at queue admission and
// consume one verdict per admitted frame; because a verdict depends only on
// (Config, frame index), the two substrates see byte-identical fault
// sequences and the cross-substrate parity test can pin them.
//
// The paper's transport unit exists because real links drop, duplicate,
// reorder, and corrupt frames; this package is the repo's stand-in for that
// hostile fabric, precise enough to replay: Plan materializes the exact
// verdict sequence any injector with the same Config will issue.
package faults

import (
	"errors"
	"sync/atomic"
)

// Class is a per-frame fault verdict class.
type Class uint8

// Verdict classes. Deliver is the zero value: an unconfigured injector is a
// transparent one.
const (
	// Deliver admits the frame untouched.
	Deliver Class = iota
	// Drop discards the frame silently — the sender learns nothing, exactly
	// like a frame lost on a real link.
	Drop
	// Duplicate admits the frame and then a second copy of it.
	Duplicate
	// Delay holds the frame back for Arg subsequent admissions before
	// releasing it (frames admitted meanwhile overtake it).
	Delay
	// Reorder is a one-admission Delay: the frame swaps order with its
	// successor.
	Reorder
	// CorruptBit flips one bit of the frame's checksum-covered header region
	// (offset derived from Arg) before admission.
	CorruptBit

	// NumClasses is the number of verdict classes, for per-class tallies.
	NumClasses = int(CorruptBit) + 1
)

func (c Class) String() string {
	switch c {
	case Deliver:
		return "deliver"
	case Drop:
		return "drop"
	case Duplicate:
		return "duplicate"
	case Delay:
		return "delay"
	case Reorder:
		return "reorder"
	case CorruptBit:
		return "corrupt-bit"
	default:
		return "class(?)"
	}
}

// Verdict is one frame's fate. Arg carries the class parameter: admissions
// to defer for Delay, always 1 for Reorder, and the raw bit-offset entropy
// for CorruptBit (consumers reduce it modulo the covered region, e.g.
// wire.FlipCoveredBit). Arg is 0 for Deliver, Drop, and Duplicate.
type Verdict struct {
	Class Class
	Arg   uint32
}

// RateDenominator is the denominator of all fault rates: rates are expressed
// in parts per million, so a Rates field of 10_000 is a 1% rate.
const RateDenominator = 1_000_000

// Rates holds the per-class fault rates in parts per million of admitted
// frames. The classes are disjoint: a frame draws one verdict, so the sum of
// all rates must not exceed RateDenominator; the remainder is the Deliver
// probability.
type Rates struct {
	Drop      uint32
	Duplicate uint32
	Delay     uint32
	Reorder   uint32
	Corrupt   uint32
}

// Sum returns the total faulted fraction in parts per million.
func (r Rates) Sum() uint64 {
	return uint64(r.Drop) + uint64(r.Duplicate) + uint64(r.Delay) +
		uint64(r.Reorder) + uint64(r.Corrupt)
}

// DefaultMaxDelay is the Delay verdict's maximum hold (in admissions) when
// Config.MaxDelay is zero.
const DefaultMaxDelay = 4

// ErrRates reports a Rates whose sum exceeds RateDenominator.
var ErrRates = errors.New("faults: class rates sum past RateDenominator")

// Config fully determines an injector's verdict sequence. Two injectors with
// equal Configs issue byte-identical verdicts in both substrates.
type Config struct {
	// Seed selects the deterministic verdict sequence.
	Seed uint64
	// Rates are the per-class fault rates (parts per million).
	Rates Rates
	// MaxDelay bounds the Delay verdict's hold in admissions
	// (0 = DefaultMaxDelay). Delay args are uniform in [1, MaxDelay].
	MaxDelay uint32
}

// Validate rejects configs whose class rates overlap.
func (c Config) Validate() error {
	if c.Rates.Sum() > RateDenominator {
		return ErrRates
	}
	return nil
}

// goldenGamma is the splitmix64 sequence increment; argSalt decorrelates the
// Arg entropy stream from the class-draw stream.
const (
	goldenGamma = 0x9E3779B97F4A7C15
	argSalt     = 0xD6E8FEB86659FD93
)

// mix64 is the splitmix64 finalizer: a full-avalanche bijection on uint64.
func mix64(z uint64) uint64 {
	z ^= z >> 33
	z *= 0xFF51AFD7ED558CCD
	z ^= z >> 33
	z *= 0xC4CEB9FE1A85EC53
	z ^= z >> 33
	return z
}

// VerdictAt returns the verdict for the frame-th admission under cfg. Pure
// and allocation-free: the verdict depends only on (cfg, frame), so any
// consumer walking indices 0..n-1 replays the identical fault sequence.
func VerdictAt(cfg Config, frame uint64) Verdict {
	h := mix64(cfg.Seed + (frame+1)*goldenGamma)
	draw := h % RateDenominator
	r := cfg.Rates
	// Walk the cumulative class thresholds in declaration order; the tail of
	// the distribution is Deliver.
	cum := uint64(r.Drop)
	if draw < cum {
		return Verdict{Class: Drop}
	}
	cum += uint64(r.Duplicate)
	if draw < cum {
		return Verdict{Class: Duplicate}
	}
	cum += uint64(r.Delay)
	if draw < cum {
		maxDelay := cfg.MaxDelay
		if maxDelay == 0 {
			maxDelay = DefaultMaxDelay
		}
		arg := mix64(h ^ argSalt)
		return Verdict{Class: Delay, Arg: 1 + uint32(arg%uint64(maxDelay))}
	}
	cum += uint64(r.Reorder)
	if draw < cum {
		return Verdict{Class: Reorder, Arg: 1}
	}
	cum += uint64(r.Corrupt)
	if draw < cum {
		return Verdict{Class: CorruptBit, Arg: uint32(mix64(h ^ argSalt))}
	}
	return Verdict{Class: Deliver}
}

// Plan materializes the first n verdicts of cfg's sequence — the replayable
// fault schedule an injector with the same Config will issue. Experiments
// and parity tests use it to know, ahead of a run, exactly which admissions
// fault and how.
func Plan(cfg Config, n int) []Verdict {
	plan := make([]Verdict, n)
	for i := range plan {
		plan[i] = VerdictAt(cfg, uint64(i))
	}
	return plan
}

// ClassCounts tallies verdicts per class, indexed by Class.
type ClassCounts [NumClasses]uint64

// CountClasses tallies a plan per verdict class.
func CountClasses(plan []Verdict) ClassCounts {
	var c ClassCounts
	for _, v := range plan {
		c[v.Class]++
	}
	return c
}

// Injector is the stateful adapter both substrates install at queue
// admission: a Config plus an atomic admission counter. Next is
// allocation-free and safe for concurrent use; the sequence of verdicts it
// issues is exactly Plan(cfg, ∞).
type Injector struct {
	cfg  Config
	next atomic.Uint64
}

// NewInjector returns an injector over cfg's verdict sequence. Configs that
// fail Validate are rejected at construction so admission paths never have
// to re-check.
func NewInjector(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{cfg: cfg}
	return inj, nil
}

// Next consumes and returns the next verdict in the sequence.
func (i *Injector) Next() Verdict {
	return VerdictAt(i.cfg, i.next.Add(1)-1)
}

// Issued returns how many verdicts have been consumed.
func (i *Injector) Issued() uint64 { return i.next.Load() }
