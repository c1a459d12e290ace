// Command daggerload is a load generator for the functional Dagger stack
// across real machines (or processes): it runs an echo server or a
// closed-loop client over the UDP transport with the reliability protocol,
// measuring wall-clock throughput and latency percentiles.
//
// Server:
//
//	daggerload -mode server -listen 127.0.0.1:9000
//
// Client:
//
//	daggerload -mode client -listen 127.0.0.1:0 -peer 127.0.0.1:9000 \
//	    -clients 4 -requests 20000 -payload 64
//
// Both sides default to the reliable protocol; -raw uses bare datagrams
// (the paper's pass-through Protocol unit).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"dagger/internal/core"
	"dagger/internal/fabric"
	"dagger/internal/stats"
	"dagger/internal/transport"
	"dagger/internal/wire"
)

const (
	serverNICAddr uint32 = 100
	clientNICBase uint32 = 1
	fnEcho        uint16 = 0
)

func main() {
	mode := flag.String("mode", "", "server | client")
	listen := flag.String("listen", "127.0.0.1:0", "local UDP address")
	peer := flag.String("peer", "", "server UDP endpoint (client mode)")
	clients := flag.Int("clients", 1, "concurrent clients (client mode)")
	requests := flag.Int("requests", 10000, "requests per client (client mode)")
	payload := flag.Int("payload", 64, "payload bytes")
	flows := flag.Int("flows", 4, "server NIC flows (server mode)")
	raw := flag.Bool("raw", false, "bare datagrams instead of the reliable protocol")
	duration := flag.Duration("runfor", 0, "server lifetime (0 = forever)")
	flag.Parse()

	conn, err := transport.NewUDPConn(*listen)
	if err != nil {
		fatal(err)
	}
	var pc transport.PacketConn = conn
	if !*raw {
		pc = transport.NewReliable(conn, transport.ReliableOptions{})
	}

	switch *mode {
	case "server":
		runServer(pc, conn.LocalEndpoint(), *flows, *duration)
	case "client":
		if *peer == "" {
			fatal(fmt.Errorf("client mode needs -peer"))
		}
		runClient(pc, *peer, *clients, *requests, *payload)
	default:
		fmt.Fprintln(os.Stderr, "daggerload: -mode must be server or client")
		os.Exit(2)
	}
}

// serve attaches an echo server NIC to pc through a bridge whose route
// table starts empty and is filled from the source address of each client
// NIC's first frame.
func serve(pc transport.PacketConn, flows int) (*core.RpcThreadedServer, *transport.Bridge, error) {
	fab := fabric.NewFabric()
	routes := transport.NewRouteTable()
	bridge := transport.NewBridge(fab, &learningConn{PacketConn: pc, routes: routes}, routes)
	nic, err := fab.CreateNIC(serverNICAddr, flows, 4096)
	if err != nil {
		return nil, nil, err
	}
	srv := core.NewRpcThreadedServer(nic, core.ServerConfig{})
	if err := srv.Register(fnEcho, "load.echo", func(_ context.Context, req []byte) ([]byte, error) {
		return req, nil
	}); err != nil {
		return nil, nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, nil, err
	}
	return srv, bridge, nil
}

func runServer(pc transport.PacketConn, endpoint string, flows int, lifetime time.Duration) {
	srv, bridge, err := serve(pc, flows)
	if err != nil {
		fatal(err)
	}
	defer bridge.Close()
	defer srv.Stop()
	fmt.Printf("daggerload server: NIC %d on %s, %d flows\n", serverNICAddr, endpoint, flows)
	if lifetime > 0 {
		time.Sleep(lifetime)
	} else {
		select {}
	}
	fmt.Printf("served %d requests\n", srv.Handled.Load())
}

// learningConn fills the route table from observed frame sources, so the
// server can answer any number of client endpoints without
// pre-configuration: the first frame from a NIC address installs a
// single-address route back to the endpoint it came from. An address keeps
// its first endpoint (routes must not overlap), so client processes sharing
// one server need distinct NIC addresses.
type learningConn struct {
	transport.PacketConn
	routes *transport.RouteTable
	mu     sync.Mutex // serializes the resolve-then-add of a new source
}

func (l *learningConn) SetHandler(h func([]byte, string)) {
	l.PacketConn.SetHandler(func(pkt []byte, from string) {
		// Unparseable packets teach nothing; the bridge rejects them next.
		if hdr, err := wire.ParseHeader(pkt); err == nil {
			if _, known := l.routes.Resolve(hdr.SrcAddr); !known {
				l.mu.Lock()
				if _, known := l.routes.Resolve(hdr.SrcAddr); !known {
					l.routes.Add(transport.Route{Lo: hdr.SrcAddr, Hi: hdr.SrcAddr, Endpoint: from})
				}
				l.mu.Unlock()
			}
		}
		h(pkt, from)
	})
}

func runClient(pc transport.PacketConn, peer string, clients, requests, payload int) {
	fab := fabric.NewFabric()
	routes := transport.NewRouteTable(transport.Route{Lo: serverNICAddr, Hi: serverNICAddr, Endpoint: peer})
	bridge := transport.NewBridge(fab, pc, routes)
	defer bridge.Close()

	nic, err := fab.CreateNIC(clientNICBase, clients, 4096)
	if err != nil {
		fatal(err)
	}
	pool, err := core.NewRpcClientPool(nic, clients)
	if err != nil {
		fatal(err)
	}
	defer pool.Close()
	if _, err := pool.ConnectAll(serverNICAddr); err != nil {
		fatal(err)
	}

	req := make([]byte, payload)
	var mu sync.Mutex
	hist := stats.NewHistogram()
	errs := 0
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli := pool.Client(i)
			for j := 0; j < requests; j++ {
				t0 := time.Now()
				_, err := cli.Call(fnEcho, req)
				d := time.Since(t0)
				mu.Lock()
				if err != nil {
					errs++
				} else {
					hist.Record(d.Nanoseconds())
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := clients * requests
	fmt.Printf("daggerload client: %d requests (%dB) over %v\n", total, payload, elapsed.Round(time.Millisecond))
	fmt.Printf("  throughput: %.0f rps  errors: %d\n", float64(total-errs)/elapsed.Seconds(), errs)
	fmt.Printf("  latency: med=%.1fus p90=%.1fus p99=%.1fus max=%.1fus\n",
		float64(hist.Percentile(50))/1e3, float64(hist.Percentile(90))/1e3,
		float64(hist.Percentile(99))/1e3, float64(hist.Max())/1e3)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "daggerload:", err)
	os.Exit(1)
}
