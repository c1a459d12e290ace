package main

import (
	"sync"
	"syscall"
	"time"
)

var epoch = time.Now()

// now is the harness clock: monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(epoch)) }

// cpuNanos returns the process's user+system CPU time.
func cpuNanos() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad who or pointer
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// numWindows is how many equal sub-windows a measured window is cut into.
// Every end-to-end metric is computed per sub-window and reported as the
// median over them, so a burst of scheduler noise spoils a few sub-windows
// instead of the run.
const numWindows = 20

// cpuClock samples process CPU and wall time at sub-window boundaries. The
// first caller to start an operation past a boundary takes the sample, so
// time and completion counts are cut at the same instant.
type cpuClock struct {
	mu     sync.Mutex
	marked int // boundaries [0, marked) are sampled
	cpu    [numWindows + 1]int64
	wall   [numWindows + 1]int64
}

func (c *cpuClock) mark(boundary int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if boundary < c.marked {
		return
	}
	cpu, wall := cpuNanos(), now()
	for ; c.marked <= boundary && c.marked <= numWindows; c.marked++ {
		c.cpu[c.marked], c.wall[c.marked] = cpu, wall
	}
}

type window struct {
	h hist
	n uint64 // completions (for model_echo: simulated RPCs)
}

// tally counts one caller's outcomes over a measured window.
type tally struct {
	attempted uint64
	failed    uint64 // errors, timeouts, refusals, wrong or missing replies
	misses    uint64 // KVS: key legitimately not found (lossy index, log wrap)
}

// recorder collects one caller's observations. begin and observe are called
// by one goroutine only (the caller's, or the client's receive goroutine for
// the pipelined issuer, which itself only touches the tally).
type recorder struct {
	tally
	start, width int64
	clock        *cpuClock
	next         int // next boundary this recorder has yet to cross
	wins         [numWindows]window
	get, set     hist // KVS: per-operation round trips
}

func newRecorder(start, width int64, clock *cpuClock) *recorder {
	return &recorder{start: start, width: width, clock: clock, next: 1}
}

func (r *recorder) end() int64 { return r.start + numWindows*r.width }

// begin is called with the time an operation starts (or, for the pipelined
// issuer, completes): crossing a sub-window boundary samples the CPU clock
// before the operation's own work is spent.
func (r *recorder) begin(t int64) {
	if k := int((t - r.start) / r.width); k >= r.next {
		r.clock.mark(k)
		r.next = k + 1
	}
}

// observe records one completed operation of v ns, standing for weight
// completions, in the sub-window that holds t (the time passed to begin).
func (r *recorder) observe(t, v int64, weight uint64) {
	if k := int((t - r.start) / r.width); k < numWindows {
		r.wins[k].h.add(v)
		r.wins[k].n += weight
	}
}

// measurement is the merged outcome of one measured window.
type measurement struct {
	tally
	completed       uint64
	p50, p90        float64 // ns, median over sub-windows
	krps, cpuPerRPC float64 // median over sub-windows
	windows         int     // sub-windows that counted
	all             hist    // every observation, for tail percentiles
	get, set        hist    // KVS round trips by operation
	mallocs         uint64
	delta           counters // registry movement over the window
	// Traced windows only: the round trip split at the handler's stamps.
	reqPath, handler, respPath hist
}

// merge folds the callers' recorders into one measurement.
func merge(recs []*recorder, clock *cpuClock) *measurement {
	m := &measurement{}
	var p50s, p90s, krps, cpus []float64
	for k := 0; k < numWindows; k++ {
		var h hist
		var n uint64
		for _, r := range recs {
			h.merge(&r.wins[k].h)
			n += r.wins[k].n
		}
		m.all.merge(&h)
		m.completed += n
		if n == 0 || clock.marked < k+2 {
			continue // empty, or the closing boundary was never crossed
		}
		p50s = append(p50s, h.quantile(0.50))
		p90s = append(p90s, h.quantile(0.90))
		krps = append(krps, float64(n)/float64(clock.wall[k+1]-clock.wall[k])*1e6)
		cpus = append(cpus, float64(clock.cpu[k+1]-clock.cpu[k])/float64(n)/1e3)
	}
	for _, r := range recs {
		m.attempted += r.attempted
		m.failed += r.failed
		m.misses += r.misses
		m.get.merge(&r.get)
		m.set.merge(&r.set)
	}
	m.windows = len(p50s)
	m.p50, m.p90 = median(p50s), median(p90s)
	m.krps, m.cpuPerRPC = median(krps), median(cpus)
	return m
}
