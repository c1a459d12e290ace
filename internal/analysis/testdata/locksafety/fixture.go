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
