// Package flight implements the paper's end-to-end microservice benchmark
// (§5.7, Figure 13): an 8-tier Flight Registration service — Passenger and
// Staff front-ends, a Check-in orchestrator, Flight, Baggage and Passport
// services, and two MICA-backed databases (Airport and Citizens). The tiers
// exhibit one-to-one, one-to-many and many-to-one dependencies, both chain
// and fan-out, and mix blocking and non-blocking RPCs exactly as described.
//
// The functional application in this file runs on the real Dagger RPC stack
// (internal/core over internal/fabric); the timing model regenerating
// Table 4 and Figure 15 lives in model.go.
package flight

import (
	"context"
	"sync"
	"time"

	"dagger/internal/core"
	"dagger/internal/fabric"
	"dagger/internal/kvs/mica"
	"dagger/internal/wire"
)

// Tier fabric addresses.
const (
	AddrPassengerFE uint32 = iota + 1
	AddrStaffFE
	AddrCheckIn
	AddrFlight
	AddrBaggage
	AddrPassport
	AddrAirportDB
	AddrCitizensDB
)

// Function IDs.
const (
	FnRegister uint16 = iota // PassengerFE / CheckIn: register a passenger
	FnFlightInfo
	FnCheckBags
	FnVerifyPassport
	FnStaffLookup
)

// Passenger is a registration request.
type Passenger struct {
	ID       uint64
	FlightNo uint32
	Bags     uint32
}

func (p Passenger) encode() []byte {
	e := wire.NewEncoder(nil)
	e.Uint64(p.ID)
	e.Uint32(p.FlightNo)
	e.Uint32(p.Bags)
	return e.Bytes()
}

func decodePassenger(b []byte) (Passenger, error) {
	d := wire.NewDecoder(b)
	p := Passenger{ID: d.Uint64(), FlightNo: d.Uint32(), Bags: d.Uint32()}
	return p, d.Err()
}

// Record is the registration outcome stored in the Airport database.
type Record struct {
	PassengerID uint64
	FlightNo    uint32
	Gate        uint32
	Bags        uint32
	PassportOK  bool
}

func (r Record) encode() []byte {
	e := wire.NewEncoder(nil)
	e.Uint64(r.PassengerID)
	e.Uint32(r.FlightNo)
	e.Uint32(r.Gate)
	e.Uint32(r.Bags)
	e.Bool(r.PassportOK)
	return e.Bytes()
}

func decodeRecord(b []byte) (Record, error) {
	d := wire.NewDecoder(b)
	r := Record{
		PassengerID: d.Uint64(),
		FlightNo:    d.Uint32(),
		Gate:        d.Uint32(),
		Bags:        d.Uint32(),
		PassportOK:  d.Bool(),
	}
	return r, d.Err()
}

// Config tunes the application.
type Config struct {
	// Threading selects each middle tier's threading model; missing
	// entries default to dispatch threads. The paper's "Optimized" model
	// moves Flight, Check-in and Passport to worker threads.
	Threading map[string]core.ServerConfig
	// FlightWork emulates the Flight service's long-running lookup.
	FlightWork time.Duration
	// Citizens seeds the Citizens database with this many residents.
	Citizens int
}

// flowsPerTier is each tier NIC's flow count.
const flowsPerTier = 2

// OptimizedThreading returns the paper's Optimized model: worker threads
// for the long-running Flight service and the nested-blocking Check-in and
// Passport services.
func OptimizedThreading(workers int) map[string]core.ServerConfig {
	w := core.ServerConfig{Threading: core.WorkerThreads, Workers: workers}
	return map[string]core.ServerConfig{
		"Flight":   w,
		"CheckIn":  w,
		"Passport": w,
	}
}

// App is a running Flight Registration deployment.
type App struct {
	Fabric *fabric.Fabric

	servers []*core.RpcThreadedServer
	pools   []*core.RpcClientPool
	nics    []*fabric.SoftNIC

	passengerPool *core.RpcClientPool
	staffPool     *core.RpcClientPool

	airport  *mica.Store
	citizens *mica.Store
}

func (a *App) tierCfg(cfg Config, tier string) core.ServerConfig {
	if c, ok := cfg.Threading[tier]; ok {
		return c
	}
	return core.ServerConfig{Threading: core.DispatchThreads}
}

// New builds and starts all eight tiers on a fresh fabric.
func New(cfg Config) (*App, error) {
	if cfg.Citizens <= 0 {
		cfg.Citizens = 1000
	}
	a := &App{Fabric: fabric.NewFabric()}
	ok := false
	defer func() {
		if !ok {
			a.Close()
		}
	}()

	mkNIC := func(addr uint32) (*fabric.SoftNIC, error) {
		n, err := a.Fabric.CreateNIC(addr, flowsPerTier, fabric.DefaultRingDepth)
		if err != nil {
			return nil, err
		}
		a.nics = append(a.nics, n)
		return n, nil
	}
	// mkPool builds a client pool on nic with a connection from every
	// client to every destination; conns[dst][i] is client i's connection
	// to dst (the SRQ model: connections share the client's ring).
	mkPool := func(nic *fabric.SoftNIC, dsts ...uint32) (*core.RpcClientPool, map[uint32][]uint32, error) {
		pool, err := core.NewRpcClientPool(nic, flowsPerTier)
		if err != nil {
			return nil, nil, err
		}
		a.pools = append(a.pools, pool)
		conns := make(map[uint32][]uint32)
		for _, d := range dsts {
			ids, err := pool.ConnectAll(d)
			if err != nil {
				return nil, nil, err
			}
			conns[d] = ids
		}
		return pool, conns, nil
	}

	// Databases first (Airport, Citizens) — MICA over Dagger with
	// object-level NIC steering.
	airportNIC, err := mkNIC(AddrAirportDB)
	if err != nil {
		return nil, err
	}
	a.airport = mica.NewStore(flowsPerTier, 1<<12, 1<<22)
	srv, err := mica.Serve(airportNIC, a.airport, core.ServerConfig{})
	if err != nil {
		return nil, err
	}
	a.servers = append(a.servers, srv)

	citizensNIC, err := mkNIC(AddrCitizensDB)
	if err != nil {
		return nil, err
	}
	a.citizens = mica.NewStore(flowsPerTier, 1<<12, 1<<22)
	srv, err = mica.Serve(citizensNIC, a.citizens, core.ServerConfig{})
	if err != nil {
		return nil, err
	}
	a.servers = append(a.servers, srv)
	for i := 0; i < cfg.Citizens; i++ {
		key := citizenKey(uint64(i))
		if err := a.citizens.Set(key, []byte{1}); err != nil {
			return nil, err
		}
	}

	// Flight service: static flight table, long-running lookups.
	flightNIC, err := mkNIC(AddrFlight)
	if err != nil {
		return nil, err
	}
	fsrv := core.NewRpcThreadedServer(flightNIC, a.tierCfg(cfg, "Flight"))
	if err := fsrv.Register(FnFlightInfo, "Flight.info", func(_ context.Context, req []byte) ([]byte, error) {
		d := wire.NewDecoder(req)
		flightNo := d.Uint32()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if cfg.FlightWork > 0 {
			time.Sleep(cfg.FlightWork)
		}
		e := wire.NewEncoder(nil)
		e.Uint32(100 + flightNo%64) // gate assignment
		return e.Bytes(), nil
	}); err != nil {
		return nil, err
	}
	if err := fsrv.Start(); err != nil {
		return nil, err
	}
	a.servers = append(a.servers, fsrv)

	// Baggage service.
	baggageNIC, err := mkNIC(AddrBaggage)
	if err != nil {
		return nil, err
	}
	bsrv := core.NewRpcThreadedServer(baggageNIC, a.tierCfg(cfg, "Baggage"))
	if err := bsrv.Register(FnCheckBags, "Baggage.check", func(_ context.Context, req []byte) ([]byte, error) {
		d := wire.NewDecoder(req)
		_ = d.Uint64() // passenger
		bags := d.Uint32()
		if err := d.Err(); err != nil {
			return nil, err
		}
		e := wire.NewEncoder(nil)
		e.Bool(bags <= 3) // checked baggage allowance
		return e.Bytes(), nil
	}); err != nil {
		return nil, err
	}
	if err := bsrv.Start(); err != nil {
		return nil, err
	}
	a.servers = append(a.servers, bsrv)

	// Passport service: blocking nested call into Citizens DB.
	passportNIC, err := mkNIC(AddrPassport)
	if err != nil {
		return nil, err
	}
	passportClients, passportConns, err := mkPool(passportNIC, AddrCitizensDB)
	if err != nil {
		return nil, err
	}
	psrv := core.NewRpcThreadedServer(passportNIC, a.tierCfg(cfg, "Passport"))
	var passportRR counter
	if err := psrv.Register(FnVerifyPassport, "Passport.verify", func(ctx context.Context, req []byte) ([]byte, error) {
		d := wire.NewDecoder(req)
		pid := d.Uint64()
		if err := d.Err(); err != nil {
			return nil, err
		}
		idx := passportRR.next(passportClients.Size())
		mc := mica.NewClientConn(passportClients.Client(idx), passportConns[AddrCitizensDB][idx])
		_, err := mc.GetContext(ctx, citizenKey(pid))
		e := wire.NewEncoder(nil)
		e.Bool(err == nil)
		return e.Bytes(), nil
	}); err != nil {
		return nil, err
	}
	if err := psrv.Start(); err != nil {
		return nil, err
	}
	a.servers = append(a.servers, psrv)

	// Check-in orchestrator: non-blocking fan-out to Flight, Baggage,
	// Passport; then blocking write to the Airport DB.
	checkinNIC, err := mkNIC(AddrCheckIn)
	if err != nil {
		return nil, err
	}
	checkinClients, checkinConns, err := mkPool(checkinNIC, AddrFlight, AddrBaggage, AddrPassport, AddrAirportDB)
	if err != nil {
		return nil, err
	}
	csrv := core.NewRpcThreadedServer(checkinNIC, a.tierCfg(cfg, "CheckIn"))
	var checkinRR counter
	if err := csrv.Register(FnRegister, "CheckIn.register", func(ctx context.Context, req []byte) ([]byte, error) {
		p, err := decodePassenger(req)
		if err != nil {
			return nil, err
		}
		idx := checkinRR.next(checkinClients.Size())
		return a.checkIn(ctx, checkinClients.Client(idx), checkinConns, idx, p)
	}); err != nil {
		return nil, err
	}
	if err := csrv.Start(); err != nil {
		return nil, err
	}
	a.servers = append(a.servers, csrv)

	// Passenger front-end: non-blocking RPCs into Check-in.
	pfeNIC, err := mkNIC(AddrPassengerFE)
	if err != nil {
		return nil, err
	}
	a.passengerPool, _, err = mkPool(pfeNIC, AddrCheckIn)
	if err != nil {
		return nil, err
	}

	// Staff front-end: asynchronously audits Airport records.
	sfeNIC, err := mkNIC(AddrStaffFE)
	if err != nil {
		return nil, err
	}
	a.staffPool, _, err = mkPool(sfeNIC, AddrAirportDB)
	if err != nil {
		return nil, err
	}

	ok = true
	return a, nil
}

// checkIn runs the orchestration: parallel fan-out, join, then a blocking
// Airport write. conns routes each nested call to the right downstream
// connection on the shared client ring.
func (a *App) checkIn(ctx context.Context, cli *core.RpcClient, conns map[uint32][]uint32, idx int, p Passenger) ([]byte, error) {
	type result struct {
		gate   uint32
		bagsOK bool
		passOK bool
	}
	var res result
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	// Flight info.
	wg.Add(1)
	ef := wire.NewEncoder(nil)
	ef.Uint32(p.FlightNo)
	if err := cli.CallConnAsyncContext(ctx, conns[AddrFlight][idx], FnFlightInfo, ef.Bytes(), func(out []byte, err error) {
		defer wg.Done()
		if err != nil {
			fail(err)
			return
		}
		d := wire.NewDecoder(out)
		mu.Lock()
		res.gate = d.Uint32()
		mu.Unlock()
		cli.Release(out)
	}); err != nil {
		wg.Done()
		fail(err)
	}

	// Baggage.
	wg.Add(1)
	eb := wire.NewEncoder(nil)
	eb.Uint64(p.ID)
	eb.Uint32(p.Bags)
	if err := cli.CallConnAsyncContext(ctx, conns[AddrBaggage][idx], FnCheckBags, eb.Bytes(), func(out []byte, err error) {
		defer wg.Done()
		if err != nil {
			fail(err)
			return
		}
		d := wire.NewDecoder(out)
		mu.Lock()
		res.bagsOK = d.Bool()
		mu.Unlock()
		cli.Release(out)
	}); err != nil {
		wg.Done()
		fail(err)
	}

	// Passport.
	wg.Add(1)
	ep := wire.NewEncoder(nil)
	ep.Uint64(p.ID)
	if err := cli.CallConnAsyncContext(ctx, conns[AddrPassport][idx], FnVerifyPassport, ep.Bytes(), func(out []byte, err error) {
		defer wg.Done()
		if err != nil {
			fail(err)
			return
		}
		d := wire.NewDecoder(out)
		mu.Lock()
		res.passOK = d.Bool()
		mu.Unlock()
		cli.Release(out)
	}); err != nil {
		wg.Done()
		fail(err)
	}

	wg.Wait()
	// Each completion was queued before its callback ran, so by now the
	// queue holds this fan-out's entries (and perhaps a concurrent one's).
	// The callbacks consumed and released their replies; drop the entries
	// without touching those buffers.
	cli.CompletionQueue().Poll(0)
	if firstErr != nil {
		return nil, firstErr
	}
	rec := Record{
		PassengerID: p.ID,
		FlightNo:    p.FlightNo,
		Gate:        res.gate,
		Bags:        p.Bags,
		PassportOK:  res.passOK && res.bagsOK,
	}
	// Blocking write to the Airport DB.
	mc := mica.NewClientConn(cli, conns[AddrAirportDB][idx])
	if err := mc.SetContext(ctx, recordKey(p.ID), rec.encode()); err != nil {
		return nil, err
	}
	return rec.encode(), nil
}

// RegisterPassenger drives one end-to-end registration through the
// Passenger front-end (blocking, for tests and examples; the load
// generator uses the async path).
func (a *App) RegisterPassenger(p Passenger) (Record, error) {
	return a.RegisterPassengerContext(context.Background(), p)
}

// RegisterPassengerContext is RegisterPassenger under ctx: the deadline
// budget rides the wire into Check-in and cascades through the fan-out tiers
// and both databases.
func (a *App) RegisterPassengerContext(ctx context.Context, p Passenger) (Record, error) {
	cli := a.passengerPool.Client(0)
	out, err := cli.CallContext(ctx, FnRegister, p.encode())
	if err != nil {
		return Record{}, err
	}
	return decodeRecord(out)
}

// StaffLookup reads a registration record via the Staff front-end.
func (a *App) StaffLookup(passengerID uint64) (Record, error) {
	mc := mica.NewClient(a.staffPool.Client(0))
	raw, err := mc.Get(recordKey(passengerID))
	if err != nil {
		return Record{}, err
	}
	return decodeRecord(raw)
}

// Close stops every tier.
func (a *App) Close() {
	for _, p := range a.pools {
		p.Close()
	}
	for _, s := range a.servers {
		s.Stop()
	}
	for _, n := range a.nics {
		n.Close()
	}
}

func citizenKey(id uint64) []byte {
	e := wire.NewEncoder(nil)
	e.Uint64(id)
	return append([]byte("cz"), e.Bytes()...)
}

func recordKey(id uint64) []byte {
	e := wire.NewEncoder(nil)
	e.Uint64(id)
	return append([]byte("rec"), e.Bytes()...)
}

// counter is a tiny synchronized round-robin cursor.
type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) next(mod int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.n % mod
	c.n++
	return v
}
