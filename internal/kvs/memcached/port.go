package memcached

import (
	"context"
	"errors"

	"dagger/internal/core"
	"dagger/internal/fabric"
	"dagger/internal/wire"
)

// This file is the Dagger port of memcached (§5.6): the original store runs
// unchanged; only its transport is swapped from kernel TCP/IP to Dagger
// RPCs. As in the paper, the change is small — the handlers below replace
// memcached's connection state machine with two registered functions while
// keeping the protocol's command semantics.

// Function IDs for the memcached service.
const (
	FnGet uint16 = iota
	FnSet
	FnDelete
	FnCAS
)

// Serve registers memcached's GET/SET commands on a Dagger server over nic
// and starts it.
func Serve(nic *fabric.SoftNIC, store *Store, cfg core.ServerConfig) (*core.RpcThreadedServer, error) {
	srv := core.NewRpcThreadedServer(nic, cfg)
	if err := srv.Register(FnGet, "memcached.get", func(_ context.Context, req []byte) ([]byte, error) {
		d := wire.NewDecoder(req)
		key := string(d.Bytes16())
		if err := d.Err(); err != nil {
			return nil, err
		}
		item, err := store.Get(key)
		e := wire.NewEncoder(nil)
		if errors.Is(err, ErrNotFound) {
			e.Bool(false)
			return e.Bytes(), nil
		}
		e.Bool(true)
		e.Uint32(item.Flags)
		e.Uint64(item.CAS)
		e.Bytes16(item.Value)
		return e.Bytes(), nil
	}); err != nil {
		return nil, err
	}
	if err := srv.Register(FnSet, "memcached.set", func(_ context.Context, req []byte) ([]byte, error) {
		d := wire.NewDecoder(req)
		key := string(d.Bytes16())
		flags := d.Uint32()
		value := d.Bytes16()
		if err := d.Err(); err != nil {
			return nil, err
		}
		cas := store.Set(key, value, flags)
		e := wire.NewEncoder(nil)
		e.Uint64(cas)
		return e.Bytes(), nil
	}); err != nil {
		return nil, err
	}
	if err := srv.Register(FnDelete, "memcached.delete", func(_ context.Context, req []byte) ([]byte, error) {
		d := wire.NewDecoder(req)
		key := string(d.Bytes16())
		if err := d.Err(); err != nil {
			return nil, err
		}
		e := wire.NewEncoder(nil)
		e.Bool(store.Delete(key))
		return e.Bytes(), nil
	}); err != nil {
		return nil, err
	}
	if err := srv.Register(FnCAS, "memcached.cas", func(_ context.Context, req []byte) ([]byte, error) {
		d := wire.NewDecoder(req)
		key := string(d.Bytes16())
		flags := d.Uint32()
		cas := d.Uint64()
		value := d.Bytes16()
		if err := d.Err(); err != nil {
			return nil, err
		}
		newCAS, err := store.CompareAndSwap(key, value, flags, cas)
		e := wire.NewEncoder(nil)
		switch {
		case errors.Is(err, ErrNotFound):
			e.Uint32(casNotFound)
		case errors.Is(err, ErrCASMismatch):
			e.Uint32(casExists)
		default:
			e.Uint32(casStored)
			e.Uint64(newCAS)
		}
		return e.Bytes(), nil
	}); err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}

// CAS reply status codes on the wire.
const (
	casStored uint32 = iota
	casNotFound
	casExists
)

// Client is a typed memcached client over a Dagger RpcClient.
type Client struct {
	c *core.RpcClient
}

// NewClient wraps an RpcClient (with an open connection to the server).
func NewClient(c *core.RpcClient) *Client { return &Client{c: c} }

// Set stores key=value and returns the CAS token.
func (mc *Client) Set(key string, value []byte, flags uint32) (uint64, error) {
	return mc.SetContext(context.Background(), key, value, flags)
}

// SetContext is Set under ctx's deadline/cancellation.
func (mc *Client) SetContext(ctx context.Context, key string, value []byte, flags uint32) (uint64, error) {
	e := wire.NewEncoder(nil)
	e.Bytes16([]byte(key))
	e.Uint32(flags)
	e.Bytes16(value)
	out, err := mc.c.CallContext(ctx, FnSet, e.Bytes())
	if err != nil {
		return 0, err
	}
	d := wire.NewDecoder(out)
	cas := d.Uint64()
	return cas, d.Err()
}
