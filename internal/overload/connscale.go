package overload

import (
	"fmt"
	"time"

	"dagger/internal/fabric"
)

const (
	fnConnScale = 3
	// connScaleCache sizes the server NIC's near-memory connection cache (C)
	// small enough that the spill phase's working set overruns it without
	// needing thousands of connections.
	connScaleCache = 32
)

// ConnScaleConfig parametrizes one functional connection-scalability run.
type ConnScaleConfig struct {
	// Rounds is how many round-robin passes each phase makes over its
	// connection working set (default 6).
	Rounds int
}

// ConnScaleResult is one functional connection-scalability run's outcome.
// The miss counters are deterministic — the direct-mapped cache geometry is
// shared with the timing stack via internal/connstate — so RunConnScale
// asserts them; the latency percentiles read the wall clock and are
// indicative only.
type ConnScaleResult struct {
	CacheSize int
	// Fit phase: FitConns (= C/2) connections, conflict-free by
	// construction, so every post-open lookup hits.
	FitConns  int
	FitCalls  int
	FitMisses uint64
	FitP50    time.Duration
	FitP99    time.Duration
	// Spill phase: SpillConns (= 2C) connections, so every slot hosts two
	// alternating ids and steady-state lookups miss.
	SpillConns  int
	SpillCalls  int
	SpillMisses uint64
	SpillP50    time.Duration
	SpillP99    time.Duration
	// FinalOpen is the server NIC's open-connection population after the
	// churn phase closed everything; nonzero means close propagation leaked.
	FinalOpen int
}

// RunConnScale executes the functional half of the connscale experiment: a
// real client/server NIC pair where the server's bounded connection cache
// (capacity C) steers requests. The working set first fits the cache (C/2
// connections: zero misses), then outgrows it (2C connections: steady-state
// lookups all miss, each stamped on the wire and echoed to the client), and
// finally closes everything (the table must drain — boundedness under
// churn). Counter gates are returned as errors so daggerbench's CI smoke run
// fails when the story rots.
func RunConnScale(cfg ConnScaleConfig) (*ConnScaleResult, error) {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 6
	}
	// The rig's single client flow keeps minted connection ids dense (1, 2,
	// 3, …): a multi-flow client strides ids by its flow count, covering only
	// a fraction of the server cache's direct-mapped slots.
	fab := fabric.NewFabric()
	r, err := newRig(fab, fab, rigConfig{fn: fnConnScale, name: "connscale.echo", connCache: connScaleCache})
	if err != nil {
		return nil, err
	}
	defer r.close()
	cli, serverNIC := r.cli, r.serverNIC

	res := &ConnScaleResult{
		CacheSize:  connScaleCache,
		FitConns:   connScaleCache / 2,
		SpillConns: 2 * connScaleCache,
	}
	// grow opens connections until the working set ids holds k of them.
	grow := func(ids []uint32, k int) ([]uint32, error) {
		for len(ids) < k {
			id, err := cli.OpenConnection(serverAddr)
			if err != nil {
				return nil, err
			}
			ids = append(ids, id)
		}
		return ids, nil
	}
	payload := []byte("connscale")
	callRR := func(ids []uint32) ([]time.Duration, error) {
		lat := make([]time.Duration, 0, len(ids)*cfg.Rounds)
		for r := 0; r < cfg.Rounds; r++ {
			for _, id := range ids {
				start := time.Now()
				resp, err := cli.CallConn(id, fnConnScale, payload)
				if err != nil {
					return nil, fmt.Errorf("connscale: conn %d: %w", id, err)
				}
				cli.Release(resp)
				lat = append(lat, time.Since(start))
			}
		}
		return lat, nil
	}

	// Fit phase: C/2 dense ids occupy distinct slots, so after each
	// connection's first-contact open every lookup hits.
	fitIDs, err := grow([]uint32{r.conn}, res.FitConns)
	if err != nil {
		return nil, err
	}
	fitLat, err := callRR(fitIDs)
	if err != nil {
		return nil, err
	}
	res.FitCalls = len(fitLat)
	res.FitMisses = uint64(serverNIC.Metrics().Snapshot().Value("conn.misses"))
	res.FitP50, res.FitP99 = latPercentiles(fitLat)
	if res.FitMisses != 0 {
		return nil, fmt.Errorf("connscale: %d conns inside a %d-entry cache missed %d times",
			res.FitConns, connScaleCache, res.FitMisses)
	}
	if got := cli.ConnMisses.Load(); got != 0 {
		return nil, fmt.Errorf("connscale: client saw %d echoed misses from a fitting working set", got)
	}

	// Spill phase: grow the working set to 2C. Each slot now hosts two ids
	// visited alternately, so after the first round's first-contact opens
	// every lookup misses, is stamped on the frame, and is echoed back.
	allIDs, err := grow(fitIDs, res.SpillConns)
	if err != nil {
		return nil, err
	}
	spillLat, err := callRR(allIDs)
	if err != nil {
		return nil, err
	}
	res.SpillCalls = len(spillLat)
	res.SpillMisses = uint64(serverNIC.Metrics().Snapshot().Value("conn.misses"))
	res.SpillP50, res.SpillP99 = latPercentiles(spillLat)
	if res.SpillMisses < uint64(res.SpillCalls)/2 {
		return nil, fmt.Errorf("connscale: %d conns over a %d-entry cache missed only %d/%d lookups",
			res.SpillConns, connScaleCache, res.SpillMisses, res.SpillCalls)
	}
	if got := cli.ConnMisses.Load(); got != res.SpillMisses {
		return nil, fmt.Errorf("connscale: server stamped %d misses but client echo counted %d",
			res.SpillMisses, got)
	}

	// Churn phase: close every connection; each close propagates as a wire
	// control frame and the server table must drain completely — the
	// boundedness an unbounded steering map cannot offer.
	for _, id := range allIDs {
		if err := cli.CloseConnection(id); err != nil {
			return nil, fmt.Errorf("connscale: close conn %d: %w", id, err)
		}
	}
	res.FinalOpen = int(serverNIC.Metrics().Snapshot().Value("conn.open"))
	if res.FinalOpen != 0 {
		return nil, fmt.Errorf("connscale: %d server entries leaked after closing all %d conns",
			res.FinalOpen, res.SpillConns)
	}
	return res, nil
}
