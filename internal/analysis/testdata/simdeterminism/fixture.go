// Package fixture seeds violations for the simdeterminism analyzer. It is
// loaded by the test harness as if it lived under dagger/internal/sim.
package fixture

import (
	"math/rand"
	"time"
)

func wallClock() time.Duration {
	t0 := time.Now()             // want `time\.Now reads the wall clock`
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the wall clock`
	return time.Since(t0)        // want `time\.Since reads the wall clock`
}

func timers(f func()) {
	<-time.After(time.Second)      // want `time\.After reads the wall clock`
	time.AfterFunc(time.Second, f) // want `time\.AfterFunc reads the wall clock`
}

func globalRand() (int, float64) {
	n := rand.Intn(10)                 // want `rand\.Intn draws from the global math/rand source`
	f := rand.Float64()                // want `rand\.Float64 draws from the global math/rand source`
	rand.Shuffle(n, func(i, j int) {}) // want `rand\.Shuffle draws from the global math/rand source`
	return n, f
}

func seeded(seed int64) int {
	rng := rand.New(rand.NewSource(seed)) // seeded constructors are the fix, not a violation
	return rng.Intn(10)
}

func mapOrderFloat(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `map iteration order is randomized`
		sum += v
	}
	return sum
}

func mapOrderUse(m map[string]int, emit func(string)) {
	for k := range m { // want `map iteration order is randomized`
		emit(k)
	}
}

func mapOrderIntSum(m map[string]int) int {
	sum := 0
	for _, v := range m { // integer accumulation is order-invariant
		sum += v
	}
	return sum
}

func mapOrderCount(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

func mapOrderCollect(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // collect-then-sort is the sanctioned pattern
		keys = append(keys, k)
	}
	return keys
}

func mapOrderSuppressed(m map[string]float64) float64 {
	best := 0.0
	// dagger:ignore simdeterminism fixture: max over values is order-invariant
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}
