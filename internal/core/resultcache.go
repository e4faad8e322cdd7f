package core

import (
	"container/list"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/seq"
)

// ResultCache is a byte-budgeted, lock-striped LRU of whole-query results.
// Memoizing entire answers is sound because the pipeline is exact: for a
// fixed (query, kind, parameter, band, base) the matches are a pure
// function of the database contents, so a stored result is bit-identical to
// a recomputation as long as no write intervened.
//
// Write tracking is a single per-database generation counter (an atomic
// uint64 the owner bumps after every Add/AddAll/AddBatch/Remove/Repair):
// every entry is stamped with the generation the owner read BEFORE the
// query ran, and Get compares that stamp against the current generation.
// The protocol makes stale hits impossible without any per-entry
// bookkeeping on the write path:
//
//   - A query reads gen g, computes, and Puts its result stamped g. If any
//     write overlapped the computation — even one the query half-observed —
//     the writer bumps the generation after mutating and before returning,
//     so by the time that write is acknowledged the current generation
//     exceeds g and the possibly-tainted entry can never be served again.
//   - Invalidation is lazy: a generation-mismatched entry is evicted by the
//     Get that finds it (counted as an invalidation AND a miss), so writes
//     cost one atomic increment regardless of cache size.
//
// The key carries the raw query bits (see ResultCacheKey), so lookups are
// exact string equality — no digest collisions to reason about.
//
// All methods are safe for concurrent use.
type ResultCache struct {
	budget int64 // per stripe
	shards [resultCacheStripes]resultCacheShard

	hits, misses, evictions, invalidations atomic.Int64
}

const resultCacheStripes = 8

// resultCacheEntryOverhead approximates the per-entry bookkeeping bytes
// (map bucket share, list element, entry struct, string header) charged
// against the budget on top of the key and match payload.
const resultCacheEntryOverhead = 128

type resultCacheShard struct {
	mu    sync.Mutex
	items map[string]*list.Element
	lru   *list.List // front = most recently used
	bytes int64
}

type resultCacheEntry struct {
	key     string
	gen     uint64
	matches []Match
	bytes   int64
}

// ResultCacheStats is a point-in-time snapshot of the cache counters.
// Invalidations count generation-mismatched entries discarded on lookup;
// each such lookup also counts as a miss, so HitRatio stays an honest
// fraction of lookups served from memory.
type ResultCacheStats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
	Bytes         int64
	Entries       int
}

// HitRatio returns Hits / (Hits + Misses), or 0 before any lookup.
func (s ResultCacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Add accumulates other into s (aggregation across engines or shards).
func (s *ResultCacheStats) Add(other ResultCacheStats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Evictions += other.Evictions
	s.Invalidations += other.Invalidations
	s.Bytes += other.Bytes
	s.Entries += other.Entries
}

// NewResultCache returns a cache bounded to roughly budgetBytes across all
// stripes, or nil when the budget admits nothing (≤ 0).
func NewResultCache(budgetBytes int64) *ResultCache {
	if budgetBytes <= 0 {
		return nil
	}
	c := &ResultCache{budget: budgetBytes / resultCacheStripes}
	if c.budget < 1 {
		c.budget = 1
	}
	for i := range c.shards {
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c
}

// ResultCacheKey builds the lookup key for one query. kind distinguishes
// the query families sharing a cache ('r' = range/ε, 'k' = k-NN); base and
// band pin the distance answered; epsilon/k are the family parameter (the
// unused one is zero); the query's raw float64 bits complete the key, so two
// queries collide only if they are the same query in every respect. band and
// k are written at full width: both arrive off the wire, and a k of 2^32+1
// must not be served the cached answer for k = 1.
func ResultCacheKey(kind byte, base seq.Base, band int, epsilon float64, k int, query []float64) string {
	buf := make([]byte, 0, 32+8*len(query))
	buf = append(buf, kind, byte(base))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(band))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(epsilon))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
	for _, v := range query {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return string(buf)
}

// stripeFor picks the stripe by FNV-1a over the key.
func (c *ResultCache) stripeFor(key string) *resultCacheShard {
	var h uint32 = 2166136261
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%resultCacheStripes]
}

// Get returns the cached matches for key if an entry exists and its
// generation stamp equals curGen. A generation mismatch discards the entry
// (lazy invalidation) and reports a miss. The returned slice is a private
// copy the caller owns.
func (c *ResultCache) Get(key string, curGen uint64) ([]Match, bool) {
	sh := c.stripeFor(key)
	sh.mu.Lock()
	el, ok := sh.items[key]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	ent := el.Value.(*resultCacheEntry)
	if ent.gen != curGen {
		sh.removeLocked(el, ent)
		sh.mu.Unlock()
		c.invalidations.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	sh.lru.MoveToFront(el)
	out := append([]Match(nil), ent.matches...)
	sh.mu.Unlock()
	c.hits.Add(1)
	return out, true
}

// Put stores the result a query computed after reading generation preGen.
// The caller must have loaded preGen BEFORE issuing any index or heap read
// of the query: any write that could have tainted the computation bumps the
// generation before it is acknowledged, so a tainted entry's stamp is stale
// by construction and Get will never serve it. Entries larger than a whole
// stripe's budget are not stored.
func (c *ResultCache) Put(key string, preGen uint64, matches []Match) {
	size := int64(len(key)) + int64(len(matches))*16 + resultCacheEntryOverhead
	if size > c.budget {
		return
	}
	ent := &resultCacheEntry{
		key:     key,
		gen:     preGen,
		matches: append([]Match(nil), matches...),
		bytes:   size,
	}
	sh := c.stripeFor(key)
	sh.mu.Lock()
	if el, ok := sh.items[key]; ok {
		// Replace in place (a concurrent query of the same key, or a
		// re-computation after invalidation).
		old := el.Value.(*resultCacheEntry)
		sh.bytes += ent.bytes - old.bytes
		el.Value = ent
		sh.lru.MoveToFront(el)
	} else {
		sh.items[key] = sh.lru.PushFront(ent)
		sh.bytes += ent.bytes
	}
	for sh.bytes > c.budget {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		sh.removeLocked(back, back.Value.(*resultCacheEntry))
		c.evictions.Add(1)
	}
	sh.mu.Unlock()
}

func (sh *resultCacheShard) removeLocked(el *list.Element, ent *resultCacheEntry) {
	sh.lru.Remove(el)
	delete(sh.items, ent.key)
	sh.bytes -= ent.bytes
}

// Stats snapshots the cache counters. The byte/entry totals are summed
// stripe by stripe, so the snapshot is weakly consistent under concurrent
// traffic — fine for monitoring.
func (c *ResultCache) Stats() ResultCacheStats {
	if c == nil {
		return ResultCacheStats{}
	}
	st := ResultCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Bytes += sh.bytes
		st.Entries += sh.lru.Len()
		sh.mu.Unlock()
	}
	return st
}
