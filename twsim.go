package twsim

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fsx"
	"repro/internal/seq"
	"repro/internal/seqdb"
	"repro/internal/wal"
)

// Base selects the per-element base distance inside the time warping
// distance (the paper's Dbase, §4.1).
type Base = seq.Base

// Base distance choices for the distance helpers (Distance, BandDistance,
// WarpingPath, …). The paper's similarity model uses BaseLInf, the one base
// a database answers (§4.1: under L∞ a tolerance does not depend on the
// sequence lengths). BaseL1 is the classic additive DTW; BaseL2Sq
// accumulates squared differences.
const (
	BaseLInf = seq.LInf
	BaseL1   = seq.L1
	BaseL2Sq = seq.L2Sq
)

// ID identifies a stored sequence.
type ID = seq.ID

// ErrNonFinite is returned by every write and query entry point when a
// sequence or query contains a NaN or ±Inf element. Non-finite values are
// rejected at the boundary because they silently break the paper's
// no-false-dismissal guarantee: a NaN feature component makes the R-tree
// entry invisible to every range query (NaN comparisons are all false)
// while a sequential scan can still match the sequence — an index/scan
// divergence with no error anywhere. Test with errors.Is.
var ErrNonFinite = seq.ErrNonFinite

// Match is one search result: a sequence ID and its exact time warping
// distance to the query.
type Match = core.Match

// Result carries the matches of one query plus its work statistics.
type Result = core.Result

// QueryStats describes the work one query performed (candidates, exact DTW
// evaluations, page I/O, wall time).
type QueryStats = core.QueryStats

// StorageStats snapshots the storage-layer counters: the data heap's buffer
// pool and the envelope store's memory. Snapshots are wait-free and weakly
// consistent (see the core type's godoc).
type StorageStats = core.StorageStats

// CostModel converts buffer pool misses into modeled disk time.
type CostModel = core.CostModel

// Options configures a DB.
type Options struct {
	// RefineWorkers is accepted and ignored (cmd/bench sets it): every query
	// refines on the goroutine that serves it; goes with ROADMAP item 1(d).
	RefineWorkers int
	// Band is the default Sakoe–Chiba band half-width queries search under.
	// 0 (the zero value) answers the paper's unconstrained time warping
	// distance — the historical behavior. A value ≥ 1 makes every query
	// answer the banded distance BandDistance(S, Q, band) instead: only
	// warpings within the band are permissible, which both sharpens the
	// similarity model and unlocks the banded envelope cascade tiers
	// (the two-sided LB_PAA and LB_Keogh on the banded envelope). Negative
	// values are rejected at query time. Per-query override: the band
	// argument of SearchCtx and NearestKCtx.
	//
	// Every search remains exact for the distance it answers: all filter
	// tiers lower-bound BandDistance (a band only removes permissible
	// warpings, so BandDistance ≥ Distance ≥ every unconstrained bound),
	// and banded results are bit-identical to a brute-force banded scan.
	Band int
	// SeqCacheBytes is accepted and ignored (cmd/bench sets it); goes with ROADMAP item 1(d).
	SeqCacheBytes int64
	// SlowQueryThreshold, when positive, makes every query whose wall time
	// reaches it emit one flat key=value log line (query kind, request ID,
	// query length, ε or k, per-phase timings, candidate and prune counts)
	// to SlowQueryLogger. 0 disables slow-query logging.
	SlowQueryThreshold time.Duration
	// SlowQueryLogger receives slow-query lines (nil = log.Default()). A
	// *log.Logger is safe for concurrent use, so one logger may serve many
	// databases.
	SlowQueryLogger *log.Logger
	// ResultCacheBytes sizes the whole-query result cache: a byte-budgeted
	// LRU of exact answers keyed by (query, kind, ε or k, band). A hit
	// returns the stored matches with zero index, heap, or DTW work and a
	// fresh RequestID. Coherence is by write generation:
	// every Add/AddAll/AddBatch/Remove/Repair bumps a per-database counter,
	// and an entry whose generation stamp is stale is kept only when the
	// cache's notes of the writes since prove none can change it (an add
	// whose Dtw-lb exceeds the entry's ε or k-th distance, the removal of a
	// non-member) and discarded on lookup otherwise — a cached answer is
	// therefore always bit-identical to a recomputation (see
	// internal/core.ResultCache). 0 disables the cache. On a sharded
	// database the cache lives at the top level only (per-shard caches would
	// double the memory for no extra hits).
	ResultCacheBytes int64
	// QueryDeadline, when positive, bounds every query's execution: a query
	// exceeding it is abandoned at its next candidate boundary with
	// context.DeadlineExceeded. It composes with caller contexts (SearchCtx
	// et al.): whichever expires first cancels. 0 means no deadline.
	QueryDeadline time.Duration
	// WAL enables the group-commit write-ahead log on on-disk databases:
	// every acknowledged Add/AddBatch/Remove survives a crash (Open
	// replays the log tail over the heap), and concurrent writers share
	// fsyncs instead of paying one each. The log fsyncs as soon as a write
	// arrives; writes that arrive during that fsync share the next one, so
	// a lone write waits for one fsync and batches grow with load on their
	// own. Ignored by in-memory databases, which have nothing durable to
	// protect. See internal/wal and DESIGN.md §14.
	WAL bool
	// WALCheckpointBytes auto-checkpoints (full Flush + log reset) when
	// the log file grows past it, bounding replay time and the window a
	// replica can lag before needing a snapshot re-bootstrap
	// (0 = 64 MiB; negative disables auto-checkpointing).
	WALCheckpointBytes int64
}

// applyDeadline attaches Options.QueryDeadline to the caller's context (nil
// means no caller context). The returned cancel must always be called; with
// no deadline configured it is a no-op and the context passes through
// untouched.
func (o Options) applyDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if o.QueryDeadline <= 0 {
		return ctx, func() {}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithTimeout(ctx, o.QueryDeadline)
}

// RepairStats summarizes what the last Repair rebuilt from the heap.
type RepairStats = core.RepairStats

// DB is a sequence database with the paper's 4-d feature index kept in sync
// with the stored sequences. A DB is safe for concurrent use: every public
// method that touches the heap, the index or the envelopes takes mu exactly
// once — queries and the other reads share it; Add, AddAll, AddBatch, Remove,
// Flush, Repair and Close hold it exclusively — so readers run beside each
// other and a writer excludes everything else on its database. A write waits
// for the fsync covering its WAL record after releasing mu, which is what
// lets concurrent writers share one fsync. Objects built from a DB
// (SubseqIndex, the baseline Searchers) take the same read lock around their
// own searches.
type DB struct {
	// mu is the one reader/writer lock of a database. Methods named
	// *Locked expect the caller to hold it, so no path acquires it twice (a
	// re-entered read lock deadlocks behind a pending writer). Lock order:
	// Server.smu → DB.mu → seqdb.DB.mu → buffer-pool stripe; wal.Log's own
	// lock is internal and never held across a call out.
	mu        sync.RWMutex
	store     *seqdb.DB
	index     *core.FlatIndex
	envs      *core.EnvStore
	dir       string // empty when in-memory
	opts      Options
	repair    RepairStats
	openNotes []string // one line per Open-time replay or removal (OpenDiagnostics)
	// gen is the write generation: bumped after every mutation
	// (Add/AddAll/Remove/Repair) and read by queries before their first
	// index or heap access, it stamps result-cache entries so a cached
	// answer is served only while the database is the one that computed
	// it or differs from it by writes the cache's notes (applyAdd,
	// applyRemove) prove cannot change it.
	gen    atomic.Uint64
	rcache *core.ResultCache // nil when Options.ResultCacheBytes == 0
	// wal is the group-commit write-ahead log (nil unless Options.WAL on
	// an on-disk database); walReplayed records that Open applied logged
	// mutations (or stopped short of some), forcing a checkpoint before Open
	// returns.
	wal         *wal.Log
	walReplayed bool
}

// exportFileName is the index image a clean Close leaves for tools outside
// the database (cmd/bench's stage replay reads it). Open never reads it and
// removes it, so it exists only while the database is closed and is then
// current.
const exportFileName = "feature.flat"

// strayFileNames are the derived-state files older versions kept beside
// the heap: the paged R-tree index and the envelope sidecar. Open removes
// them unread.
var strayFileNames = []string{"feature.rtree", "envelopes.paa"}

// newIndex returns an empty in-memory flat index (creating one cannot
// fail), reporting its size in the heap's page unit, 1 KB (the paper's
// setting).
func newIndex() *core.FlatIndex {
	index, _ := core.NewFlatIndex(core.IndexOptions{})
	return index
}

// newDB wraps a heap in a database with an empty index and envelope store.
func newDB(store *seqdb.DB, dir string, opts Options) *DB {
	return &DB{store: store, index: newIndex(), envs: core.NewEnvStore(), dir: dir,
		opts: opts, rcache: core.NewResultCache(opts.ResultCacheBytes)}
}

// note records one Open-time diagnostic line (see OpenDiagnostics).
func (db *DB) note(format string, args ...any) {
	db.openNotes = append(db.openNotes, fmt.Sprintf(format, args...))
}

// OpenDiagnostics returns one human-readable line per thing the most recent
// Open did besides deriving the index: WAL records replayed, a replay that
// stopped early, a stray file of an older version or a stale temp file
// removed. Empty when the database opened clean. twsimd logs each line at startup so
// silent self-healing leaves a trace. (Only Open writes the notes, before the
// database is shared, so reading them takes no lock.)
func (db *DB) OpenDiagnostics() []string {
	return append([]string(nil), db.openNotes...)
}

// IndexEngineStats describes the index: snapshot generation, delta size,
// merge count, and snapshot slab size.
func (db *DB) IndexEngineStats() core.IndexEngineStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.index.EngineStats()
}

// OpenMem creates an ephemeral in-memory database (page layout and buffer
// accounting identical to the on-disk form).
func OpenMem(opts Options) (*DB, error) {
	store, err := seqdb.NewMem(seqdb.Options{})
	if err != nil {
		return nil, err
	}
	return newDB(store, "", opts), nil
}

// Create creates a new on-disk database in directory dir.
func Create(dir string, opts Options) (*DB, error) {
	store, err := seqdb.Create(dir, seqdb.Options{})
	if err != nil {
		return nil, err
	}
	db := newDB(store, dir, opts)
	if opts.WAL {
		if db.wal, err = wal.Create(filepath.Join(dir, walFileName), 1, wal.Options{}); err != nil {
			db.Close()
			return nil, err
		}
	}
	return db, nil
}

// Open opens an existing on-disk database.
//
// The heap is the source of truth, and Open derives everything else from
// it: one heap scan builds the feature index and the PAA envelopes
// (core.Derive), so no index or envelope file is ever read. With the WAL
// on, the log tail is replayed over the heap first. Open removes
// feature.flat, the index image the last clean Close left; a feature.rtree
// or envelopes.paa an older version kept and the temp files a killed Flush
// left are removed too, each with a line in OpenDiagnostics.
func Open(dir string, opts Options) (*DB, error) {
	store, err := seqdb.Open(dir, seqdb.Options{})
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("twsim: %s does not contain a database: %w", dir, err)
	}
	if err != nil {
		// The heap is the source of truth: there is nothing to rebuild a
		// damaged heap from.
		return nil, fmt.Errorf("twsim: the sequence heap in %s cannot be opened: %w", dir, err)
	}
	db := newDB(store, dir, opts)
	stale, err := fsx.RemoveStaleTemps(dir)
	for _, name := range stale {
		db.note("stale temp file %s removed-on-open (left by an interrupted flush)", name)
	}
	if err != nil {
		// Leftovers waste space, nothing reads them: not worth failing Open.
		db.note("stale temp cleanup stopped: %v", err)
	}
	db.removeStrays()
	if opts.WAL {
		// Replay the WAL tail over the heap before the derive scan, which
		// then sees the recovered appends and tombstones like any others.
		if err := db.openWAL(); err != nil {
			store.Close()
			return nil, fmt.Errorf("twsim: write-ahead log: %w", err)
		}
	}
	// From here db.Close releases whatever was opened so far.
	if _, err := db.derive(); err != nil {
		db.Close()
		return nil, err
	}
	if db.walReplayed {
		// The replayed mutations are in the heap now: a checkpoint makes
		// them durable there and drops a tail the replay stopped short of.
		if err := db.Flush(); err != nil {
			db.Close()
			return nil, err
		}
	}
	return db, nil
}

// removeStrays deletes the files Open never reads: the index image of the
// last clean Close, and the derived-state files of older versions, which
// get a diagnostic line each.
func (db *DB) removeStrays() {
	// Every clean Close writes a fresh image, so one that cannot be removed
	// here is only ever replaced, never read.
	_ = os.Remove(filepath.Join(db.dir, exportFileName))
	for _, name := range strayFileNames {
		switch err := os.Remove(filepath.Join(db.dir, name)); {
		case err == nil:
			db.note("stray %s removed-on-open (an older version's derived state; derived from the heap instead)", name)
		case !errors.Is(err, fs.ErrNotExist):
			db.note("stray %s not removed: %v", name, err)
		}
	}
}

// LastRepair returns the statistics of the last Repair. It is the zero
// value after Open: opening derives the index, it does not repair one.
func (db *DB) LastRepair() RepairStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.repair
}

// Repair derives the feature index and the envelope store again from the
// live heap records, exactly as Open does — the fix counterpart to Verify,
// usable on any database at any time. The heap is the source of truth, so
// whatever diverged from it is replaced. It returns what it rebuilt.
func (db *DB) Repair() (RepairStats, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	live, err := db.derive()
	if err != nil {
		return db.repair, err
	}
	db.repair = RepairStats{LiveSequences: live, Rebuilt: true}
	return db.repair, nil
}

// derive builds a fresh feature index and envelope store from the heap in
// one scan (core.Derive) and swaps them in for the ones they replace. On
// an error the database keeps what it had.
func (db *DB) derive() (live int, err error) {
	index, envs := newIndex(), core.NewEnvStore()
	if live, err = core.Derive(db.store, index, envs); err != nil {
		index.Close()
		return live, fmt.Errorf("twsim: deriving the index from the heap: %w", err)
	}
	db.index.Close()
	db.index, db.envs = index, envs
	db.gen.Add(1)
	return live, nil
}

// Len returns the number of stored sequences.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.store.Len()
}

// checkSequences is the check every add door runs before anything moves:
// each sequence non-empty (seq.ErrEmpty) and finite (ErrNonFinite).
func checkSequences(values [][]float64) error {
	for i, v := range values {
		if len(v) == 0 {
			return fmt.Errorf("twsim: batch sequence %d: %w", i, seq.ErrEmpty)
		}
		if err := seq.CheckFinite(v); err != nil {
			return fmt.Errorf("twsim: batch sequence %d: %w", i, err)
		}
	}
	return nil
}

// applyAdd performs the in-memory/in-heap half of Add, AddAll and AddBatch
// (addLocked in durability.go owns WAL logging): every check that can
// refuse runs first, then the heap takes the whole batch or none of it, and
// the index and envelope updates after that cannot fail. It returns the
// first ID and the batch as sequences, which the log record carries.
func (db *DB) applyAdd(values [][]float64) (ID, []seq.Sequence, error) {
	if len(values) == 0 {
		return seq.InvalidID, nil, fmt.Errorf("twsim: AddAll of empty batch: %w", seq.ErrEmpty)
	}
	if err := checkSequences(values); err != nil {
		return seq.InvalidID, nil, err
	}
	ss := make([]seq.Sequence, len(values))
	features := make([]seq.Feature, len(values))
	for i, v := range values {
		ss[i] = seq.Sequence(v)
		features[i] = seq.MustFeature(ss[i])
	}
	first, err := db.store.AppendAll(ss)
	if err != nil {
		return seq.InvalidID, nil, err
	}
	ids := make([]ID, len(values))
	for i, s := range ss {
		ids[i] = first + ID(i)
		env, _ := seq.ExtractPAAEnvelope(s) // fails only on an empty sequence
		db.envs.Put(ids[i], env)
	}
	db.index.Put(ids, features)
	db.rcache.NoteAdd(db.gen.Add(1), features)
	return first, ss, nil
}

// applyRemove performs the in-memory/in-heap half of Remove (see Remove in
// durability.go): the record's feature is read before anything moves, then
// the heap tombstones it and the index and envelope updates follow.
func (db *DB) applyRemove(id ID) (bool, error) {
	sc := seqdb.AcquireScratch()
	defer sc.Release()
	s, err := db.store.Fetch(id, sc)
	if err != nil {
		if errors.Is(err, seqdb.ErrDeleted) || errors.Is(err, seqdb.ErrNotFound) {
			return false, nil
		}
		return false, err
	}
	f := seq.MustFeature(s) // a stored record is never empty
	if ok, err := db.store.Delete(id); !ok || err != nil {
		return false, err
	}
	db.index.Drop(id, f)
	db.envs.Remove(id)
	db.rcache.NoteRemove(db.gen.Add(1), id)
	return true, nil
}

// Get fetches a stored sequence by ID; the result is the caller's own.
func (db *DB) Get(id ID) ([]float64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.store.Get(id)
}

// searcher builds the query engine for one Sakoe–Chiba band half-width
// (0 = unconstrained). ctx, when non-nil, cancels the query at its next
// candidate boundary.
func (db *DB) searcher(ctx context.Context, band int) *core.TWSimSearch {
	return &core.TWSimSearch{DB: db.store, Index: db.index, Base: seq.LInf,
		Band: band, Envs: db.envs, Ctx: ctx}
}

// Generation returns the database's current write generation — the counter
// the result cache stamps entries with. It advances on every mutation, so
// two equal readings bracket a window in which no write was acknowledged.
func (db *DB) Generation() uint64 { return db.gen.Load() }

// ResultCacheStats snapshots the whole-query result cache counters (all
// zero when the cache is disabled).
func (db *DB) ResultCacheStats() core.ResultCacheStats { return db.rcache.Stats() }

// DefaultBand returns the band half-width queries run under when no
// per-call override is given (Options.Band).
func (db *DB) DefaultBand() int { return db.opts.Band }

// cachedResult assembles the Result a cache hit returns: the stored matches
// (already a private copy), zero work counters — no index walk, fetch, or
// DTW ran, so the conservation law holds trivially as 0 = 0 — and a fresh
// RequestID stamped by the caller.
func cachedResult(ms []Match, start time.Time) *Result {
	res := &Result{Matches: ms, CacheHit: true}
	res.Stats.Results = len(ms)
	res.Stats.Wall = time.Since(start)
	return res
}

// validateBand rejects invalid band half-widths at the API boundary. 0 is
// the unconstrained distance; ≥ 1 is a Sakoe–Chiba half-width; negative
// values have no meaning at this layer and are an error (the internal dtw
// package's r<0 = unconstrained convention is deliberately not exposed —
// the zero value must mean "historical behavior").
func validateBand(band int) error {
	if band < 0 {
		return fmt.Errorf("twsim: negative band half-width %d", band)
	}
	return nil
}

// validateQuery is the check every single-query door runs before touching
// an index: a non-empty, finite query under a valid band.
func validateQuery(query []float64, band int) error {
	if len(query) == 0 {
		return seq.ErrEmpty
	}
	if err := seq.CheckFinite(query); err != nil {
		return err
	}
	return validateBand(band)
}

// queryCall names one single-query call: the inputs of its result-cache key
// and of its slow-log line. rangeCall and knnCall build the two kinds, so
// runQuery never asks which one it is serving.
type queryCall struct {
	family  byte // core.ResultCacheKey family: 'r' = range, 'k' = k-NN
	query   []float64
	epsilon float64 // range tolerance; 0 for k-NN
	k, band int     // k is the neighbour count; 0 for range
}

func rangeCall(query []float64, epsilon float64, band int) queryCall {
	return queryCall{family: 'r', query: query, epsilon: epsilon, band: band}
}

func knnCall(query []float64, k, band int) queryCall {
	return queryCall{family: 'k', query: query, k: k, band: band}
}

// guard is what the result cache judges a later add against: an added
// sequence changes a range answer only within ε, and a k-NN answer that
// holds k matches only at or below its k-th distance (matches ascend). A
// shorter k-NN answer takes any new sequence in, so its bound is +Inf.
func (c queryCall) guard(ms []Match) core.ResultGuard {
	bound := math.Inf(1)
	switch {
	case c.family == 'r':
		bound = c.epsilon
	case c.k > 0 && len(ms) == c.k:
		bound = ms[c.k-1].Dist
	}
	return core.ResultGuard{Feature: seq.MustFeature(c.query), Bound: bound}
}

// runQuery is the one protocol every single-query entry point of both
// backends runs: validate → check the context → probe the whole-query
// result cache → attach the deadline → compute → store → stamp the request
// ID and slow-log. gen reads the backend's write generation; compute runs
// the actual search under the deadline-bearing context. (A range door
// rejects a negative tolerance before calling.)
//
// Coherence (DESIGN.md §13.2) is stated over this function alone: gen() is
// loaded before any index or heap read of the query — the probe and compute
// both come after it — a hit is served only when the entry's stamp equals
// that reading or the cache's write notes since the stamp cannot change the
// entry, and a computed answer is stored under the same pre-query reading,
// so any write that overlaps the computation has bumped the generation past
// the stamp and the entry is judged against that write on its first lookup.
func runQuery(ctx context.Context, o Options, rc *core.ResultCache, gen func() uint64,
	c queryCall, compute func(ctx context.Context) (*Result, error)) (*Result, error) {
	if err := validateQuery(c.query, c.band); err != nil {
		return nil, err
	}
	// A done context returns its error whether or not the cache holds the
	// answer (DESIGN.md §13.3).
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	start := time.Now()
	var (
		key    string
		preGen uint64
		res    *Result
	)
	if rc != nil {
		key = core.ResultCacheKey(c.family, c.band, c.epsilon, c.k, c.query)
		preGen = gen() // before any index/heap read of this query
		if ms, ok := rc.Get(key, preGen); ok {
			res = cachedResult(ms, start)
		}
	}
	if res == nil {
		ctx, cancel := o.applyDeadline(ctx)
		defer cancel()
		var err error
		if res, err = compute(ctx); err != nil {
			return nil, err
		}
		if rc != nil {
			rc.Put(key, preGen, res.Matches, c.guard(res.Matches))
		}
	}
	res.RequestID = nextRequestID()
	o.logSlowQuery(c, res.RequestID, res.Stats)
	return res, nil
}

// validateTolerance is the check every tolerance door runs before it
// touches an index. A NaN ε is refused with ErrNonFinite: every comparison
// with NaN is false, so the index filter would admit every record and the
// refinement reject them all. A negative ε is refused with
// errNegativeTolerance. +Inf is legal: it asks for every record.
func validateTolerance(epsilon float64) error {
	if math.IsNaN(epsilon) {
		return fmt.Errorf("twsim: tolerance %v: %w", epsilon, ErrNonFinite)
	}
	if epsilon < 0 {
		return errNegativeTolerance(epsilon)
	}
	return nil
}

func errNegativeTolerance(epsilon float64) error {
	return fmt.Errorf("twsim: negative tolerance %g", epsilon)
}

// Search finds every sequence whose time warping distance to query is at
// most epsilon, using the paper's TW-Sim-Search (Algorithm 1): index range
// query with Dtw-lb, then exact DTW refinement. No false dismissal. The
// distance answered is the unconstrained Dtw when Options.Band is 0, the
// banded BandDistance otherwise. It is SearchCtx with no context and the
// default band.
func (db *DB) Search(query []float64, epsilon float64) (*Result, error) {
	return db.SearchCtx(nil, query, epsilon, db.opts.Band)
}

// SearchCtx is the range-query door: Search under an explicit Sakoe–Chiba
// band half-width for this call (0 answers the unconstrained time warping
// distance, band ≥ 1 answers BandDistance(S, Q, band), exact for the banded
// distance — bit-identical to a brute-force banded scan) and governed by a
// context: the query is abandoned at its next candidate boundary once ctx
// is done (the context's error is returned; a nil context never cancels),
// and Options.QueryDeadline, if set, caps the execution time on top.
// Cancellation only abandons work, it never skips a qualifying candidate.
//
// The returned Result carries a process-unique RequestID; queries whose
// wall time reaches Options.SlowQueryThreshold are logged with it. The
// whole-query result cache, when enabled, is consulted first (see
// Options.ResultCacheBytes).
func (db *DB) SearchCtx(ctx context.Context, query []float64, epsilon float64, band int) (*Result, error) {
	if err := validateTolerance(epsilon); err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return runQuery(ctx, db.opts, db.rcache, db.gen.Load, rangeCall(query, epsilon, band),
		func(ctx context.Context) (*Result, error) {
			return db.searcher(ctx, band).Search(seq.Sequence(query), epsilon)
		})
}

// NearestK returns the k sequences with the smallest exact time warping
// distance to query, in ascending distance order (an extension enabled by
// Dtw-lb being a true lower bound of Dtw). The distance is unconstrained
// when Options.Band is 0, banded otherwise. It is NearestKCtx with no
// context and the default band, returning only the matches.
func (db *DB) NearestK(query []float64, k int) ([]Match, error) {
	res, err := db.NearestKCtx(nil, query, k, db.opts.Band)
	if err != nil {
		return nil, err
	}
	return res.Matches, nil
}

// NearestKCtx is the k-NN door: NearestK under an explicit band half-width
// for this call (0 = unconstrained) and governed by a context (see
// SearchCtx), returning the full Result — the matches plus the query's work
// counters (candidates, cascade prune tiers, DTW calls, wall time) and its
// RequestID, which is what lets the serving layer export k-NN traffic into
// the same metrics and slow-query log as range searches. The whole-query
// result cache, when enabled, serves repeated queries without re-running
// the walk.
func (db *DB) NearestKCtx(ctx context.Context, query []float64, k, band int) (*Result, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return runQuery(ctx, db.opts, db.rcache, db.gen.Load, knnCall(query, k, band),
		func(ctx context.Context) (*Result, error) {
			ms, stats, err := db.searcher(ctx, band).NearestKSharedStats(seq.Sequence(query), k, nil)
			if err != nil {
				return nil, err
			}
			return &Result{Matches: ms, Stats: stats}, nil
		})
}

// StorageStats snapshots the storage-layer counters: the data buffer pool
// and the envelope store's memory.
func (db *DB) StorageStats() StorageStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return StorageStats{Data: db.store.Stats(), EnvelopeBytes: db.envs.Bytes()}
}

// Distance computes the exact time warping distance between a stored
// sequence and an arbitrary query: the paper's L∞ distance, unconstrained.
func (db *DB) Distance(id ID, query []float64) (float64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	sc := seqdb.AcquireScratch()
	defer sc.Release()
	s, err := db.store.Fetch(id, sc)
	if err != nil {
		return 0, err
	}
	return Distance(s, query, BaseLInf), nil
}

// IndexPages returns the number of pages the feature index occupies — the
// paper observes the index stays below 4% of the database size (§5.2).
func (db *DB) IndexPages() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.index.Pages()
}

// DataBytes returns the logical size of the stored sequence data.
func (db *DB) DataBytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.store.Bytes()
}

// CheckInvariants validates the index structure (tests and repair tooling).
func (db *DB) CheckInvariants() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.index.CheckInvariants()
}

// Flush persists the heap to disk (no-op for in-memory databases) at a
// cost set by what changed, not by the database's size: the heap's dirty
// pages and its directory. The index and the envelopes are derived from
// the heap at Open, so nothing else is written. With the WAL enabled a
// successful Flush is also a checkpoint: once the heap pages are fsynced
// and the manifest renamed and dir-synced, every logged mutation is durable
// by other means, so the log resets to an empty file with a higher base
// sequence number (pending waiters are released — their records are
// durable too).
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.flushLocked()
}

func (db *DB) flushLocked() error {
	if err := db.store.Flush(); err != nil {
		return err
	}
	if db.wal != nil {
		if err := db.wal.Checkpoint(); err != nil {
			return fmt.Errorf("twsim: wal checkpoint: %w", err)
		}
	}
	return nil
}

// Close flushes and releases the database. With the WAL enabled the log is
// checkpointed (emptied) on a clean close, so the next Open has nothing to
// replay. An on-disk database then exports its index, merged, to
// feature.flat for tools outside the database; Open never reads it.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	err := db.store.Close()
	if ierr := db.index.Close(); err == nil {
		err = ierr
	}
	if db.wal != nil {
		// The store Close above flushed and fsynced the heap + manifest,
		// so the checkpoint's precondition holds; a checkpoint failure
		// just leaves the tail to be replayed (idempotently) at next Open.
		if err == nil {
			if cerr := db.wal.Checkpoint(); cerr != nil && !errors.Is(cerr, wal.ErrClosed) {
				err = fmt.Errorf("twsim: wal checkpoint: %w", cerr)
			}
		}
		if cerr := db.wal.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("twsim: wal close: %w", cerr)
		}
	}
	if db.dir != "" && err == nil {
		if xerr := db.index.Export(filepath.Join(db.dir, exportFileName)); xerr != nil {
			err = fmt.Errorf("twsim: exporting the index: %w", xerr)
		}
	}
	return err
}
