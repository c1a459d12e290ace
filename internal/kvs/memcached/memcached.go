// Package memcached implements a memcached-like in-memory key-value store:
// a sharded hash table with per-shard locking, LRU eviction under a memory
// bound, item flags and expiration-free TTL semantics reduced to the SET/GET
// subset the paper drives over Dagger (§5.6). The original protocol's
// command semantics (STORED/NOT_FOUND responses, flags round-tripping) are
// preserved so the Dagger port can "keep the original memcached protocol to
// verify the integrity and correctness of the data".
package memcached

import (
	"container/list"
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// Errors mirroring memcached's protocol responses.
var (
	// ErrNotFound is returned for missing keys (NOT_FOUND).
	ErrNotFound = errors.New("memcached: NOT_FOUND")
	// ErrCASMismatch is returned when a CAS token is stale (EXISTS).
	ErrCASMismatch = errors.New("memcached: EXISTS")
)

// Item is one stored value with memcached's metadata.
type Item struct {
	Key   string
	Value []byte
	Flags uint32
	CAS   uint64
}

type entry struct {
	item Item
	elem *list.Element
}

type shard struct {
	mu    sync.Mutex
	items map[string]*entry
	lru   *list.List // front = most recently used
	bytes int64
}

// Store is a sharded, LRU-bounded KVS.
type Store struct {
	shards   []*shard
	maxBytes int64 // per shard
	casSeq   atomic.Uint64

	Hits      atomic.Uint64
	MissCount atomic.Uint64
	Sets      atomic.Uint64
	Evictions atomic.Uint64
}

// New creates a store with nShards shards and a total memory bound in
// bytes (0 = unbounded).
func New(nShards int, maxBytes int64) *Store {
	if nShards <= 0 {
		nShards = 8
	}
	s := &Store{maxBytes: 0}
	if maxBytes > 0 {
		s.maxBytes = maxBytes / int64(nShards)
		if s.maxBytes == 0 {
			s.maxBytes = 1
		}
	}
	for i := 0; i < nShards; i++ {
		s.shards = append(s.shards, &shard{
			items: make(map[string]*entry),
			lru:   list.New(),
		})
	}
	return s
}

func (s *Store) shardFor(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

func itemBytes(key string, val []byte) int64 {
	return int64(len(key) + len(val) + 48) // struct overhead estimate
}

// Set stores a value, evicting LRU items if the shard exceeds its bound.
// It returns the item's CAS token.
func (s *Store) Set(key string, value []byte, flags uint32) uint64 {
	cas := s.casSeq.Add(1)
	sh := s.shardFor(key)
	val := append([]byte(nil), value...)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.items[key]; ok {
		sh.bytes += int64(len(val) - len(e.item.Value))
		e.item.Value = val
		e.item.Flags = flags
		e.item.CAS = cas
		sh.lru.MoveToFront(e.elem)
	} else {
		e := &entry{item: Item{Key: key, Value: val, Flags: flags, CAS: cas}}
		e.elem = sh.lru.PushFront(e)
		sh.items[key] = e
		sh.bytes += itemBytes(key, val)
	}
	s.Sets.Add(1)
	if s.maxBytes > 0 {
		for sh.bytes > s.maxBytes && sh.lru.Len() > 1 {
			oldest := sh.lru.Back()
			victim := oldest.Value.(*entry)
			sh.lru.Remove(oldest)
			delete(sh.items, victim.item.Key)
			sh.bytes -= itemBytes(victim.item.Key, victim.item.Value)
			s.Evictions.Add(1)
		}
	}
	return cas
}

// Get fetches a value, refreshing its LRU position.
func (s *Store) Get(key string) (Item, error) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.items[key]
	if !ok {
		s.MissCount.Add(1)
		return Item{}, ErrNotFound
	}
	sh.lru.MoveToFront(e.elem)
	s.Hits.Add(1)
	item := e.item
	item.Value = append([]byte(nil), e.item.Value...)
	return item, nil
}

// CompareAndSwap stores value only if the caller's CAS token matches the
// item's current token (memcached's cas command). It returns the new token
// on success, ErrNotFound for missing keys, and ErrCASMismatch when another
// writer got there first.
func (s *Store) CompareAndSwap(key string, value []byte, flags uint32, cas uint64) (uint64, error) {
	newCAS := s.casSeq.Add(1)
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.items[key]
	if !ok {
		s.MissCount.Add(1)
		return 0, ErrNotFound
	}
	if e.item.CAS != cas {
		return 0, ErrCASMismatch
	}
	val := append([]byte(nil), value...)
	sh.bytes += int64(len(val) - len(e.item.Value))
	e.item.Value = val
	e.item.Flags = flags
	e.item.CAS = newCAS
	sh.lru.MoveToFront(e.elem)
	s.Sets.Add(1)
	return newCAS, nil
}

// Delete removes a key; it reports whether the key existed.
func (s *Store) Delete(key string) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.items[key]
	if !ok {
		return false
	}
	sh.lru.Remove(e.elem)
	delete(sh.items, key)
	sh.bytes -= itemBytes(key, e.item.Value)
	return true
}
