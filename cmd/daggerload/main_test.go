package main

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"dagger/internal/core"
	"dagger/internal/fabric"
	"dagger/internal/transport"
)

// memNet is an in-memory datagram network: Send calls the destination's
// handler synchronously with the packet borrowed, as the PacketConn contract
// allows.
type memNet struct {
	mu    sync.Mutex
	conns map[string]*memConn
}

type memConn struct {
	net     *memNet
	name    string
	mu      sync.Mutex
	handler func([]byte, string)
}

func (n *memNet) conn(name string) *memConn {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := &memConn{net: n, name: name}
	n.conns[name] = c
	return c
}

func (c *memConn) Send(endpoint string, pkt []byte) error {
	c.net.mu.Lock()
	dst := c.net.conns[endpoint]
	c.net.mu.Unlock()
	if dst == nil {
		return fmt.Errorf("memnet: no conn %q", endpoint)
	}
	dst.mu.Lock()
	h := dst.handler
	dst.mu.Unlock()
	if h != nil {
		h(pkt, c.name)
	}
	return nil
}

func (c *memConn) SetHandler(h func([]byte, string)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.handler = h
}

func (c *memConn) LocalEndpoint() string { return c.name }
func (c *memConn) Close() error          { c.SetHandler(nil); return nil }

// Two client endpoints at one server: the server used to panic installing
// the whole client range a second time ("route [1, 99] overlaps [1, 99]").
// Each must get its own replies back through a per-source learned route.
func TestServerLearnsOneRoutePerClientEndpoint(t *testing.T) {
	net := &memNet{conns: map[string]*memConn{}}
	srv, bridge, err := serve(net.conn("srv"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer bridge.Close()
	defer srv.Stop()

	for i, name := range []string{"c1", "c2"} {
		fab := fabric.NewFabric()
		cb := transport.NewBridge(fab, net.conn(name),
			transport.NewRouteTable(transport.Route{Lo: serverNICAddr, Hi: serverNICAddr, Endpoint: "srv"}))
		defer cb.Close()
		nic, err := fab.CreateNIC(clientNICBase+uint32(i), 1, 64)
		if err != nil {
			t.Fatal(err)
		}
		cli, err := core.NewRpcClient(nic, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		if _, err := cli.OpenConnection(serverNICAddr); err != nil {
			t.Fatal(err)
		}
		cli.SetTimeout(5 * time.Second)
		want := []byte("hello from " + name)
		for j := 0; j < 3; j++ {
			got, err := cli.Call(fnEcho, want)
			if err != nil {
				t.Fatalf("%s call %d: %v", name, j, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s call %d echoed %q, want %q", name, j, got, want)
			}
			cli.Release(got)
		}
	}
	if got := srv.Handled.Load(); got != 6 {
		t.Fatalf("server handled %d requests, want 6", got)
	}
}
