package exp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/topo"
)

// tableKey content-addresses one routed state: the graph's structural
// fingerprint, its link-down mask, and the engine configuration. Two
// independently built machines with the same topology and fault state map
// to the same key, which is what lets the N trials and fault-free cells of
// a sweep share one table build.
type tableKey struct {
	fp, down uint64
	engine   string
	lmc      uint8
}

type cacheEntry struct {
	once sync.Once
	t    *route.Tables
	err  error
}

// TableCache memoizes frozen route.Tables by content key. Concurrent Get
// calls for the same key build once (singleflight via sync.Once) and every
// caller receives the shared immutable tables rebound to its own graph, so
// runtime fault injection on one machine never aliases another's tables.
// Entries are evicted FIFO past Cap.
type TableCache struct {
	mu      sync.Mutex
	entries map[tableKey]*cacheEntry
	order   []tableKey
	cap     int

	// Counters are atomics so live-progress reporters can read them
	// mid-sweep without taking the cache lock the workers contend on.
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// DefaultTableCache is the process-wide cache Plane.Rebuild consults. Its
// capacity comfortably covers a sweep (5 combos × a handful of fault
// masks); re-sweep studies cycling through hundreds of masks recycle the
// oldest entries.
var DefaultTableCache = NewTableCache(64)

// NewTableCache returns a cache evicting beyond capacity (FIFO).
func NewTableCache(capacity int) *TableCache {
	if capacity < 1 {
		capacity = 1
	}
	return &TableCache{entries: make(map[tableKey]*cacheEntry), cap: capacity}
}

// Get returns the tables for (g's structure, g's down mask, engine, lmc),
// building them at most once per key via build. The result is always
// frozen and bound to g; callers must not mutate it (route.Tables panics
// if they try). Build errors are cached for the key as well — a
// disconnected degraded fabric fails identically on every retry.
func (c *TableCache) Get(g *topo.Graph, engine string, lmc uint8, build func() (*route.Tables, error)) (*route.Tables, error) {
	key := tableKey{fp: g.Fingerprint(), down: g.DownHash(), engine: engine, lmc: lmc}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
		c.order = append(c.order, key)
		c.misses.Add(1)
		for len(c.order) > c.cap {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
			c.evictions.Add(1)
		}
	} else {
		c.hits.Add(1)
	}
	c.mu.Unlock()

	e.once.Do(func() {
		t, err := build()
		if err != nil {
			e.err = err
			return
		}
		if !t.Frozen() {
			e.err = fmt.Errorf("exp: engine %q returned unfrozen tables; cannot cache", engine)
			return
		}
		e.t = t
	})
	if e.err != nil {
		return nil, e.err
	}
	if e.t.G == g {
		return e.t, nil
	}
	return e.t.Rebind(g), nil
}

// CacheStats is a point-in-time snapshot of the cache's lifetime counters.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Lookups is the total Get count.
func (s CacheStats) Lookups() uint64 { return s.Hits + s.Misses }

// HitRate is hits over lookups, 0 when the cache was never consulted.
func (s CacheStats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// Stats snapshots the lifetime hit/miss/eviction counters. It is safe to
// call from any goroutine while a sweep is running (lock-free), which is
// how the runner's live-progress ticker reports cache effectiveness
// mid-run.
func (c *TableCache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}
