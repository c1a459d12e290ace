package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dagger/internal/dataplane"
	"dagger/internal/fabric"
	"dagger/internal/retry"
	"dagger/internal/wire"
)

// TestSubBudgetMatchesShedDecision pins the wire/core budget boundary: the
// saturating wire.SubBudget re-anchor and the server's ShedDecision are two
// views of the same dataplane policy, so for every (budget, elapsed) pair
// SubBudget must report expired exactly when the server would shed. It also
// pins the saturation properties that motivated SubBudget: a decrement never
// wraps below zero (the uint32 underflow this satellite fixes), and a live
// budget never re-anchors to 0, because 0 on the wire means "no deadline".
func TestSubBudgetMatchesShedDecision(t *testing.T) {
	type pair struct {
		budget  uint32
		elapsed uint64 // microseconds
	}
	rng := rand.New(rand.NewSource(46))
	var cases []pair
	for i := 0; i < 300; i++ {
		cases = append(cases, pair{uint32(rng.Intn(2000)), uint64(rng.Intn(3000))})
	}
	cases = append(cases,
		pair{100, 100},          // exact expiry
		pair{100, 99},           // one microsecond of life left
		pair{100, 101},          // would wrap without saturation
		pair{1, 1 << 40},        // elapsed far past uint32 range
		pair{0, 1 << 40},        // no deadline: never expires
		pair{wire.MaxBudget, 0}, // full budget, no time passed
		pair{wire.MaxBudget, uint64(wire.MaxBudget)},
	)

	base := time.Unix(2_000_000, 0)
	for _, c := range cases {
		remaining, expired := wire.SubBudget(c.budget, c.elapsed)
		shed := ShedDecision(base, base.Add(time.Duration(c.elapsed)*time.Microsecond), c.budget)
		raw := dataplane.ShouldShed(c.budget, c.elapsed)
		if expired != shed || expired != raw {
			t.Fatalf("budget %d elapsed %dus: SubBudget expired=%v, ShedDecision=%v, ShouldShed=%v",
				c.budget, c.elapsed, expired, shed, raw)
		}
		if expired && remaining != 0 {
			t.Fatalf("budget %d elapsed %dus: expired with remaining %d", c.budget, c.elapsed, remaining)
		}
		if c.budget > 0 && !expired {
			if remaining == 0 {
				t.Fatalf("budget %d elapsed %dus: live budget re-anchored to 0 (no-deadline)", c.budget, c.elapsed)
			}
			if remaining > c.budget {
				t.Fatalf("budget %d elapsed %dus: remaining %d wrapped past the budget", c.budget, c.elapsed, remaining)
			}
		}
		if c.budget == 0 && (remaining != 0 || expired) {
			t.Fatalf("no-deadline budget produced remaining=%d expired=%v", remaining, expired)
		}
	}
}

// congestedPair builds a client/server pair whose server-side RX ring is
// small enough to mark under a handful of queued requests. The handler
// blocks until release is closed; started fires once when the first request
// reaches it, which guarantees the dispatch thread is parked and every
// subsequent frame ages in the ring.
func congestedPair(t *testing.T, ringDepth int) (cli *RpcClient, conn uint32, started, release chan struct{}, cleanup func()) {
	t.Helper()
	f := fabric.NewFabric()
	nicS, err := f.CreateNIC(2, 1, ringDepth)
	if err != nil {
		t.Fatal(err)
	}
	started = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	srv := NewRpcThreadedServer(nicS, ServerConfig{})
	if err := srv.Register(0, "gate", func(ctx context.Context, req []byte) ([]byte, error) {
		once.Do(func() { close(started) })
		<-release
		return req, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	nicC, err := f.CreateNIC(1, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	cli, err = NewRpcClient(nicC, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err = cli.OpenConnection(2)
	if err != nil {
		t.Fatal(err)
	}
	return cli, conn, started, release, func() {
		cli.Close()
		srv.Stop()
	}
}

// TestClientCongestionLoop drives the whole control loop end to end on the
// functional substrate: a stalled server dispatch thread lets requests pile
// into a depth-8 RX ring, the fabric stamps the ones admitted past half
// occupancy, the server echoes the stamp into its responses, and the client
// reacts — counting marks, recording the hint, and multiplicatively shrinking
// the connection's AIMD window (at most once per in-flight window).
func TestClientCongestionLoop(t *testing.T) {
	const ringDepth = 8
	cli, conn, started, release, cleanup := congestedPair(t, ringDepth)
	defer cleanup()

	var wg sync.WaitGroup
	results := make([]error, ringDepth+1)
	issue := func(i int) {
		if err := cli.CallAsync(0, []byte{byte(i)}, func(_ []byte, err error) {
			results[i] = err
			wg.Done()
		}); err != nil {
			t.Errorf("issue %d: %v", i, err)
			wg.Done()
		}
	}
	// First request occupies the handler; wait until it provably does.
	wg.Add(1)
	issue(0)
	select {
	case <-started:
	case <-time.After(2 * time.Second):
		t.Fatal("handler never started")
	}
	// The next ringDepth requests age in the ring at depths 0..ringDepth-1;
	// the upper half crosses the dataplane mark threshold.
	for i := 1; i <= ringDepth; i++ {
		wg.Add(1)
		issue(i)
	}
	close(release)
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Fatalf("call %d failed: %v", i, err)
		}
	}

	if got := cli.Marks.Load(); got != ringDepth/2 {
		t.Fatalf("client saw %d marked responses, want %d", got, ringDepth/2)
	}
	cli.mu.Lock()
	cc := cli.cong[conn]
	if cc == nil {
		cli.mu.Unlock()
		t.Fatal("connection 1 reports no congestion state")
	}
	st := *cc
	cli.mu.Unlock()
	if st.Marks != ringDepth/2 || st.Cleans != ringDepth/2+1 {
		t.Fatalf("marks/cleans = %d/%d, want %d/%d", st.Marks, st.Cleans, ringDepth/2, ringDepth/2+1)
	}
	if st.InFlight != 0 {
		t.Fatalf("inflight = %d after all completions", st.InFlight)
	}
	// All marks land inside one in-flight window (every call was issued
	// before the first completion), so the epoch guard admits exactly one
	// multiplicative decrease: the clean completions that precede the first
	// mark stay capped at the max, and no clean follows the last mark.
	if st.Size != dataplane.DefaultMaxWindow/2 {
		t.Fatalf("window = %d, want one halving to %d", st.Size, dataplane.DefaultMaxWindow/2)
	}
	// The marked responses drain after the clean ones (ring order), so the
	// surviving hint is congested and scales retry backoff.
	if st.LastHint < dataplane.MarkHint {
		t.Fatalf("last hint %d not congested after marked drain", st.LastHint)
	}
	if scale := cli.backoffScale(conn); scale < 2 {
		t.Fatalf("backoff scale = %d, want >= 2 while congested", scale)
	}
}

// TestCongestionWindowRefusal pins the client-side enforcement half: a full
// AIMD window refuses new issues with ErrCongested before anything reaches
// the NIC, the refusal is counted, and CallConnRetry treats it as safe to
// retry — succeeding once the window reopens.
func TestCongestionWindowRefusal(t *testing.T) {
	cli, conn, started, release, cleanup := congestedPair(t, 256)
	defer cleanup()

	// Clamp the window to 1 as if heavy marking had collapsed it.
	cli.mu.Lock()
	cli.cong[conn].Size = 1
	cli.cong[conn].LastHint = 255
	cli.mu.Unlock()

	var wg sync.WaitGroup
	wg.Add(1)
	if err := cli.CallAsync(0, []byte("hold"), func(_ []byte, err error) {
		if err != nil {
			t.Errorf("held call: %v", err)
		}
		wg.Done()
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(2 * time.Second):
		t.Fatal("handler never started")
	}

	// Window full: the second issue must be refused locally.
	if _, err := cli.Call(0, []byte("overflow")); !errors.Is(err, ErrCongested) {
		t.Fatalf("err = %v, want ErrCongested", err)
	}
	if got := cli.Refused.Load(); got != 1 {
		t.Fatalf("refused = %d, want 1", got)
	}

	// CallConnRetry backs off (scaled by the congested hint) and succeeds
	// once the held call completes and frees the window.
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	p := retry.Policy{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond, Multiplier: 2, MaxAttempts: 10, Seed: 7}
	resp, err := cli.CallConnRetry(context.Background(), p, conn, 0, []byte("again"))
	if err != nil {
		t.Fatalf("retry after window reopened: %v", err)
	}
	if string(resp) != "again" {
		t.Fatalf("resp = %q", resp)
	}
	cli.Release(resp)
	wg.Wait()

	cli.mu.Lock()
	st := *cli.cong[conn]
	cli.mu.Unlock()
	if st.InFlight != 0 {
		t.Fatalf("inflight = %d after completions", st.InFlight)
	}
}
