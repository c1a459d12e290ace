package memcached

import (
	"context"

	"dagger/internal/wire"
)

// Len returns the total number of stored items.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns the approximate resident size.
func (s *Store) Bytes() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// Get fetches key; a NOT_FOUND reply maps back to ErrNotFound.
func (mc *Client) Get(key string) (Item, error) {
	e := wire.NewEncoder(nil)
	e.Bytes16([]byte(key))
	out, err := mc.c.CallContext(context.Background(), FnGet, e.Bytes())
	if err != nil {
		return Item{}, err
	}
	d := wire.NewDecoder(out)
	if !d.Bool() {
		return Item{}, ErrNotFound
	}
	item := Item{Key: key, Flags: d.Uint32(), CAS: d.Uint64()}
	item.Value = append([]byte(nil), d.Bytes16()...)
	return item, d.Err()
}

// Delete removes key over the wire; it reports whether the key existed.
func (mc *Client) Delete(key string) (bool, error) {
	e := wire.NewEncoder(nil)
	e.Bytes16([]byte(key))
	out, err := mc.c.CallContext(context.Background(), FnDelete, e.Bytes())
	if err != nil {
		return false, err
	}
	d := wire.NewDecoder(out)
	existed := d.Bool()
	return existed, d.Err()
}

// CompareAndSwap updates key over the wire only if cas matches the stored
// token, keeping memcached's STORED / NOT_FOUND / EXISTS semantics.
func (mc *Client) CompareAndSwap(key string, value []byte, flags uint32, cas uint64) (uint64, error) {
	e := wire.NewEncoder(nil)
	e.Bytes16([]byte(key))
	e.Uint32(flags)
	e.Uint64(cas)
	e.Bytes16(value)
	out, err := mc.c.CallContext(context.Background(), FnCAS, e.Bytes())
	if err != nil {
		return 0, err
	}
	d := wire.NewDecoder(out)
	switch d.Uint32() {
	case casNotFound:
		return 0, ErrNotFound
	case casExists:
		return 0, ErrCASMismatch
	}
	newCAS := d.Uint64()
	return newCAS, d.Err()
}
