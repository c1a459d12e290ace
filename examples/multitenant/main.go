// Multi-tenant example: several independent Dagger NIC instances on one
// acceleration fabric (§5.7, Figure 14, §6): each tenant gets its own
// "virtual but physical" NIC with its own soft configuration — one tenant
// runs a memcached cache with uniform steering, another runs MICA with the
// object-level balancer, and a third runs a plain RPC service — all served
// concurrently, with per-tenant packet-monitor counters.
//
// Run with: go run ./examples/multitenant
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"dagger/internal/core"
	"dagger/internal/fabric"
	"dagger/internal/kvs/memcached"
	"dagger/internal/kvs/mica"
)

const (
	clientAddr uint32 = 1
	mcdAddr    uint32 = 10 // tenant A: memcached
	micaAddr   uint32 = 20 // tenant B: MICA
	echoAddr   uint32 = 30 // tenant C: latency-sensitive RPC service
)

func main() {
	fab := fabric.NewFabric()

	// Tenant A: memcached with 2 flows, default static steering.
	mcdNIC, err := fab.CreateNIC(mcdAddr, 2, 0)
	if err != nil {
		log.Fatal(err)
	}
	mcdStore := memcached.New(8, 0)
	mcdSrv, err := memcached.Serve(mcdNIC, mcdStore, core.ServerConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer mcdSrv.Stop()

	// Tenant B: MICA with 4 flows and the object-level balancer (its NIC is
	// configured differently from tenant A's — per-tenant soft config).
	micaNIC, err := fab.CreateNIC(micaAddr, 4, 0)
	if err != nil {
		log.Fatal(err)
	}
	micaStore := mica.NewStore(4, 1<<12, 1<<22)
	micaSrv, err := mica.Serve(micaNIC, micaStore, core.ServerConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer micaSrv.Stop()

	// Tenant C: a small dispatch-thread RPC service.
	echoNIC, err := fab.CreateNIC(echoAddr, 1, 0)
	if err != nil {
		log.Fatal(err)
	}
	echoSrv := core.NewRpcThreadedServer(echoNIC, core.ServerConfig{})
	if err := echoSrv.Register(0, "echo", func(_ context.Context, req []byte) ([]byte, error) {
		return req, nil
	}); err != nil {
		log.Fatal(err)
	}
	if err := echoSrv.Start(); err != nil {
		log.Fatal(err)
	}
	defer echoSrv.Stop()

	// One client host drives all three tenants concurrently; each worker
	// goroutine owns one RpcClient (one NIC flow) with connections to every
	// tenant sharing its ring (SRQ).
	clientNIC, err := fab.CreateNIC(clientAddr, 3, 0)
	if err != nil {
		log.Fatal(err)
	}
	pool, err := core.NewRpcClientPool(clientNIC, 3)
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()

	var wg sync.WaitGroup
	for i := 0; i < pool.Size(); i++ {
		cli := pool.Client(i)
		// The first connection a client opens becomes its default, which
		// memcached.Client calls over.
		if _, err := cli.OpenConnection(mcdAddr); err != nil {
			log.Fatal(err)
		}
		micaConn, err := cli.OpenConnection(micaAddr)
		if err != nil {
			log.Fatal(err)
		}
		echoConn, err := cli.OpenConnection(echoAddr)
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mcdCli := memcached.NewClient(cli)
			micaCli := mica.NewClientConn(cli, micaConn)
			for j := 0; j < 200; j++ {
				key := fmt.Sprintf("w%d-k%d", i, j)
				if _, err := mcdCli.Set(key, []byte(key), 0); err != nil {
					log.Printf("mcd set: %v", err)
					return
				}
				if err := micaCli.Set([]byte(key), []byte(key)); err != nil {
					log.Printf("mica set: %v", err)
					return
				}
				if _, err := cli.CallConn(echoConn, 0, []byte(key)); err != nil {
					log.Printf("echo: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	fmt.Println("per-tenant NIC packet monitors after 600 ops x 3 workers:")
	for _, t := range []struct {
		name string
		nic  *fabric.SoftNIC
	}{
		{"memcached (2 flows, static LB)", mcdNIC},
		{"MICA      (4 flows, object-level LB)", micaNIC},
		{"echo      (1 flow,  dispatch)", echoNIC},
	} {
		fmt.Printf("  %-38s in=%4d out=%4d bytes-in=%6d drops=%d\n",
			t.name, t.nic.RPCsIn.Load(), t.nic.RPCsOut.Load(), t.nic.BytesIn.Load(), t.nic.Drops.Load())
	}
	fmt.Printf("MICA partitions loaded: ")
	for p := 0; p < micaStore.NumPartitions(); p++ {
		fmt.Printf("p%d=%d ", p, micaStore.Partition(p).Sets)
	}
	fmt.Println()
}
