package api

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// lru is a bounded, thread-safe least-recently-used map: the one
// eviction policy behind the service's item, compiled-batch and plan
// caches. A capacity <= 0 disables it: every get misses and add stores
// nothing.
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{cap: capacity, ll: list.New(), items: make(map[K]*list.Element)}
}

// get returns the value stored under key and marks it most recently
// used.
func (c *lru[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// add stores val under key, evicting the least recently used entry
// when the cache is full, and returns the value now stored under key.
// An entry already present wins over val: every cache here holds
// values that are a pure function of their key, so a racing duplicate
// computation changes nothing.
func (c *lru[K, V]) add(key K, val V) V {
	if c.cap <= 0 {
		return val
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).val
	}
	c.items[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[K, V]).key)
	}
	return val
}

// len returns the number of stored entries.
func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Cache is a bounded, thread-safe LRU of sweep-point results, keyed by
// the canonical point key (see pointKey). Repeated hot queries — the
// same grid point appearing in overlapping sweeps, or an identical
// sweep re-submitted — are served from it without touching the
// simulator.
type Cache struct {
	lru    *lru[string, SweepItem]
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewCache returns an LRU cache holding up to capacity entries.
// capacity <= 0 disables caching (every Get misses, Put is a no-op).
func NewCache(capacity int) *Cache {
	return &Cache{lru: newLRU[string, SweepItem](capacity)}
}

// Get returns the cached item for key, marks it most recently used
// and counts the lookup as a hit or a miss.
func (c *Cache) Get(key string) (SweepItem, bool) {
	item, ok := c.peek(key)
	c.count(ok)
	return item, ok
}

// peek is Get without the count: the sweep feeder may look a point up
// twice and records its verdict once, with count.
func (c *Cache) peek(key string) (SweepItem, bool) { return c.lru.get(key) }

// count records one lookup verdict in the hit and miss counts.
func (c *Cache) count(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// Put stores the item under key, evicting the least recently used
// entry when the cache is full. An item already cached under key is
// kept: the item is a pure function of its key.
func (c *Cache) Put(key string, item SweepItem) { c.lru.add(key, item) }

// Len returns the number of cached entries.
func (c *Cache) Len() int { return c.lru.len() }

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits.Load(), c.misses.Load() }
