package core

import (
	"container/list"
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/seq"
)

// ResultCache is a byte-budgeted, lock-striped LRU of whole-query results.
// Memoizing entire answers is sound because the pipeline is exact: for a
// fixed (query, kind, parameter, band) the matches are a pure
// function of the database contents, so a stored result is bit-identical to
// a recomputation as long as no write that could change it intervened.
//
// Write tracking is a per-database generation counter (an atomic uint64 the
// owner bumps after every Add/AddAll/AddBatch/Remove/Repair): every entry is
// stamped with the generation the owner read BEFORE the query ran, and Get
// compares that stamp against the current generation.
//
//   - A query reads gen g, computes, and Puts its result stamped g. If any
//     write overlapped the computation — even one the query half-observed —
//     the writer bumps the generation after mutating and before returning,
//     so by the time that write is acknowledged the current generation
//     exceeds g and the entry is judged against that write before it is
//     served again.
//   - Beside the counter the cache keeps a short log of the writes
//     themselves, one note per generation (NoteAdd: the added sequences'
//     features; NoteRemove: the removed ID), bounded to writeLogCap
//     features and IDs. A write the owner does not note (a Repair, an undo,
//     any write of an owner that keeps no notes) leaves a gap, and a gap
//     clears the log.
//   - A Get that finds an entry stamped older than the current generation
//     keeps it, restamped, when the log holds every generation after the
//     stamp and no note in that range can change the answer; otherwise it
//     drops the entry. An add cannot change the answer when every added
//     feature f has f.DistLInf(fq) > bound, with fq the query's feature
//     and bound the entry's ε (range) or k-th distance (a full k-NN
//     answer; +Inf otherwise): that value is the LB_Kim of Theorem 1, which
//     never exceeds the L∞ Dtw bit for bit, and BandDistance ≥ Dtw, so the
//     added sequence is neither within ε nor closer than the k-th match. A
//     remove cannot change the answer when the removed ID is not one of its
//     matches. Invalidation stays lazy: a write costs one note, whatever the
//     cache holds.
//
// The owner must write a generation's note while no query of its database
// runs (the DB does so under DB.mu held exclusively, queries hold it shared
// across Get, compute and Put), so the notes after a stamp are complete
// whenever a Get reads them.
//
// The key carries the raw query bits (see ResultCacheKey), so lookups are
// exact string equality — no digest collisions to reason about.
//
// All methods are safe for concurrent use; NoteAdd and NoteRemove are also
// safe on a nil cache.
type ResultCache struct {
	budget int64 // per stripe
	shards [resultCacheStripes]resultCacheShard
	log    writeLog

	hits, misses, evictions, invalidations, revalidations atomic.Int64
}

// ResultGuard is what an entry needs to judge a later add: the query's
// feature and the bound an added sequence's distance must exceed to leave
// the answer as it is (ε for a range answer, the k-th distance for a k-NN
// answer that holds k matches, +Inf otherwise).
type ResultGuard struct {
	Feature seq.Feature
	Bound   float64
}

const resultCacheStripes = 8

// resultCacheEntryOverhead approximates the per-entry bookkeeping bytes
// (map bucket share, list element, entry struct with its guard, string
// header) charged against the budget on top of the key and match payload.
const resultCacheEntryOverhead = 176

// writeLogCap bounds the write log in features and removed IDs (≈ 128 KiB
// of features): enough for the adds and removes of a serving workload
// between two lookups of a hot query, not for a bulk load, whose batches
// push the oldest notes out.
const writeLogCap = 4096

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
	guard   ResultGuard
	bytes   int64
}

// writeLog holds one note per generation for the generations first,
// first+1, …, first+len(notes)-1, and size features and IDs in all.
type writeLog struct {
	mu    sync.RWMutex
	first uint64
	notes []writeNote
	size  int
}

// writeNote is one write: an add's features, or (added nil) a removed ID.
type writeNote struct {
	added   []seq.Feature
	removed seq.ID
}

func (n *writeNote) cost() int { return max(len(n.added), 1) }

// ResultCacheStats is a point-in-time snapshot of the cache counters.
// Invalidations count stale entries discarded on lookup because a write
// since they were stored could change them or the write log no longer
// covers them; each such lookup also counts as a miss, so HitRatio stays an
// honest fraction of lookups served from memory. Revalidations count stale
// entries the log proved unchanged and served (each is also a hit).
type ResultCacheStats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
	Revalidations int64
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
	s.Revalidations += other.Revalidations
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
// the query families sharing a cache ('r' = range/ε, 'k' = k-NN); band pins
// the distance answered (always L∞); epsilon/k are the family parameter (the
// unused one is zero); the query's raw float64 bits complete the key, so two
// queries collide only if they are the same query in every respect. band and
// k are written at full width: both arrive off the wire, and a k of 2^32+1
// must not be served the cached answer for k = 1.
func ResultCacheKey(kind byte, band int, epsilon float64, k int, query []float64) string {
	buf := make([]byte, 0, 32+8*len(query))
	buf = append(buf, kind)
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
// generation stamp equals curGen, or the write log proves that no write
// since the stamp changed it (the entry is then restamped curGen). Any
// other stale entry is discarded (lazy invalidation) and reported as a
// miss. The returned slice is a private copy the caller owns.
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
		if !c.log.unchanged(ent, curGen) {
			sh.removeLocked(el, ent)
			sh.mu.Unlock()
			c.invalidations.Add(1)
			c.misses.Add(1)
			return nil, false
		}
		ent.gen = curGen
		c.revalidations.Add(1)
	}
	sh.lru.MoveToFront(el)
	out := append([]Match(nil), ent.matches...)
	sh.mu.Unlock()
	c.hits.Add(1)
	return out, true
}

// Put stores the result a query computed after reading generation preGen,
// with the guard a later Get judges writes against. The caller must have
// loaded preGen BEFORE issuing any index or heap read of the query: any
// write that could have tainted the computation bumps the generation before
// it is acknowledged, so a tainted entry's stamp is stale by construction
// and Get serves it again only past that write's note. Entries larger than
// a whole stripe's budget are not stored.
func (c *ResultCache) Put(key string, preGen uint64, matches []Match, guard ResultGuard) {
	size := int64(len(key)) + int64(len(matches))*16 + resultCacheEntryOverhead
	if size > c.budget {
		return
	}
	ent := &resultCacheEntry{
		key:     key,
		gen:     preGen,
		matches: append([]Match(nil), matches...),
		guard:   guard,
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

// NoteAdd records that generation gen added sequences with these features
// (the cache keeps the slice; the caller must not modify it). A nil cache
// ignores it.
func (c *ResultCache) NoteAdd(gen uint64, features []seq.Feature) {
	if c != nil {
		c.log.note(gen, writeNote{added: features})
	}
}

// NoteRemove records that generation gen removed id. A nil cache ignores it.
func (c *ResultCache) NoteRemove(gen uint64, id seq.ID) {
	if c != nil {
		c.log.note(gen, writeNote{removed: id})
	}
}

// note appends gen's note. A generation that does not follow the last
// noted one means writes went by unnoted, so the log restarts at gen; the
// oldest notes leave once the log holds more than writeLogCap, and a note
// larger than the cap empties it, so it covers nothing up to gen.
func (l *writeLog) note(gen uint64, n writeNote) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if gen != l.first+uint64(len(l.notes)) {
		l.reset(gen)
	}
	if n.cost() > writeLogCap {
		l.reset(gen + 1)
		return
	}
	l.notes = append(l.notes, n)
	l.size += n.cost()
	for l.size > writeLogCap {
		l.size -= l.notes[0].cost()
		l.notes[0] = writeNote{}
		l.notes = l.notes[1:]
		l.first++
	}
}

// reset empties the log; the next note it takes in order is for next.
func (l *writeLog) reset(next uint64) {
	clear(l.notes)
	l.notes, l.first, l.size = l.notes[:0], next, 0
}

// unchanged reports whether the log holds a note for every generation in
// (ent.gen, cur] and none of them can change ent's answer.
func (l *writeLog) unchanged(ent *resultCacheEntry, cur uint64) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if ent.gen >= cur || ent.gen+1 < l.first || cur >= l.first+uint64(len(l.notes)) {
		return false
	}
	for _, n := range l.notes[ent.gen+1-l.first : cur+1-l.first] {
		if n.changes(ent) {
			return false
		}
	}
	return true
}

// changes reports whether the write n can change ent's answer: an added
// sequence whose LB_Kim does not exceed the entry's bound, or the removal
// of one of its matches.
func (n *writeNote) changes(ent *resultCacheEntry) bool {
	if n.added == nil {
		return slices.ContainsFunc(ent.matches, func(m Match) bool { return m.ID == n.removed })
	}
	g := &ent.guard
	for _, f := range n.added {
		if !(f.DistLInf(g.Feature) > g.Bound) {
			return true
		}
	}
	return false
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
		Revalidations: c.revalidations.Load(),
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
