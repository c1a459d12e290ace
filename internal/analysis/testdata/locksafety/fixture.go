// Package fixture seeds violations for the locksafety analyzer. It is
// loaded by the test harness as if it lived under dagger/internal/core.
package fixture

import (
	"sync"
	"time"
)

type guarded struct {
	mu sync.Mutex
	n  int
}

type rwGuarded struct {
	mu sync.RWMutex
	n  int
}

func byValueParam(mu sync.Mutex) {} // want `parameter passes lock by value`

func byValueStruct(g guarded) int { // want `parameter passes lock by value`
	return g.n
}

func pointerParamOK(g *guarded) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

func copyAssign(g *guarded) {
	cp := *g // want `assignment copies lock value`
	_ = cp
}

func rangeCopy(gs []guarded) int {
	total := 0
	for _, g := range gs { // want `range value copies lock value`
		total += g.n
	}
	return total
}

func rangeIndexOK(gs []guarded) int {
	total := 0
	for i := range gs {
		gs[i].mu.Lock()
		total += gs[i].n
		gs[i].mu.Unlock()
	}
	return total
}

func heldAtReturn(g *guarded, bad bool) int {
	g.mu.Lock()
	if bad {
		return -1 // want `return with g\.mu held`
	}
	g.mu.Unlock()
	return 0
}

func rlockHeldAtReturn(g *rwGuarded, bad bool) int {
	g.mu.RLock()
	if bad {
		return -1 // want `return with g\.mu held`
	}
	g.mu.RUnlock()
	return g.n
}

func earlyReturnUnlockOK(g *guarded, skip bool) int {
	g.mu.Lock()
	if skip {
		g.mu.Unlock()
		return 0
	}
	g.mu.Unlock()
	return 1
}

func deferUnlockOK(g *guarded, bad bool) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if bad {
		return -1
	}
	return g.n
}

func sendWhileLocked(g *guarded, ch chan int) {
	g.mu.Lock()
	ch <- g.n // want `channel send while holding g\.mu`
	g.mu.Unlock()
}

func sendAfterUnlockOK(g *guarded, ch chan int) {
	g.mu.Lock()
	n := g.n
	g.mu.Unlock()
	ch <- n
}

func recvWhileLocked(g *guarded, ch chan int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return <-ch // want `channel receive while holding g\.mu`
}

func sleepWhileLocked(g *guarded) {
	g.mu.Lock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while holding g\.mu`
	g.mu.Unlock()
}

func waitWhileLocked(g *guarded, wg *sync.WaitGroup) {
	g.mu.Lock()
	defer g.mu.Unlock()
	wg.Wait() // want `sync wg\.Wait\(\) while holding g\.mu`
}

func blockingSelectWhileLocked(g *guarded, ch chan int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	select { // want `blocking select while holding g\.mu`
	case v := <-ch:
		g.n = v
	}
}

func nonBlockingSelectOK(g *guarded, ch chan int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case v := <-ch:
		g.n = v
	default:
	}
}

func goroutineDoesNotInherit(g *guarded, ch chan int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	go func() {
		ch <- 1 // the goroutine does not hold g.mu
	}()
}

func suppressed(g *guarded, ch chan int) {
	g.mu.Lock()
	ch <- g.n // dagger:ignore locksafety fixture: the suppression itself is under test
	g.mu.Unlock()
}

// ---- dagger:requires-lock annotation checking ----

type cache struct {
	mu sync.Mutex
	m  map[string]int
}

// locked reads the entry for k. Caller holds c.mu.
//
// dagger:requires-lock mu
func (c *cache) locked(k string) int {
	return c.m[k]
}

// lockedRecv demonstrates that an annotated body is simulated with the
// caller's mutex held: blocking inside it is blocking under the lock.
//
// dagger:requires-lock mu
func (c *cache) lockedRecv(ch chan int) int {
	return <-ch // want `channel receive while holding c\.mu`
}

// dagger:requires-lock
func (c *cache) badAnnotation() {} // want `dagger:requires-lock annotation missing the mutex field name`

func callerHoldsOK(c *cache, k string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.locked(k)
}

func callerMissingLock(c *cache, k string) int {
	return c.locked(k) // want `call to locked requires holding c\.mu`
}

func callerUnlockedTooEarly(c *cache, k string) int {
	c.mu.Lock()
	c.mu.Unlock()
	return c.locked(k) // want `call to locked requires holding c\.mu`
}

func callSiteInAssignChecked(c *cache, k string) {
	v := c.locked(k) // want `call to locked requires holding c\.mu`
	_ = v
}

func callSiteInCondChecked(c *cache, k string) bool {
	if c.locked(k) > 0 { // want `call to locked requires holding c\.mu`
		return true
	}
	return false
}

type owner struct{ c *cache }

// nestedReceiverOK shows receiver canonicalization: holding o.c.mu
// satisfies a call to o.c.locked.
func nestedReceiverOK(o *owner, k string) int {
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	return o.c.locked(k)
}

func nestedReceiverMissing(o *owner, k string) int {
	return o.c.locked(k) // want `call to locked requires holding o\.c\.mu`
}

// annotatedCallsAnnotatedOK: the seeded state lets an annotated helper
// call a sibling helper with the same precondition.
//
// dagger:requires-lock mu
func (c *cache) annotatedCallsAnnotatedOK(k string) int {
	return c.locked(k)
}

func deferredCallNotChecked(c *cache, k string) {
	c.mu.Lock()
	defer c.locked(k) // defers run under a different lock regime; not checked
	c.mu.Unlock()
}
