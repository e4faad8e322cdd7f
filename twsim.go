package twsim

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"runtime"
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

// Base distance choices. The paper's similarity model uses BaseLInf; BaseL1
// is the classic additive DTW; BaseL2Sq accumulates squared differences.
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
// pool. Snapshots are wait-free and weakly consistent (see the core type's
// godoc).
type StorageStats = core.StorageStats

// CostModel converts buffer pool misses into modeled disk time.
type CostModel = core.CostModel

// Options configures a DB.
type Options struct {
	// Base is the per-element distance inside DTW. The zero value is
	// BaseLInf, the paper's model.
	Base Base
	// PageSize is the page size of the data heap file (0 = 1 KB, the
	// paper's setting); the index reports its size in the same unit.
	PageSize int
	// RefineWorkers bounds the intra-query parallelism of the refinement
	// step (candidate fetch + cascade + exact DTW): 0 means GOMAXPROCS,
	// 1 restores the fully serial execution, and results are bit-identical
	// at every setting. On a sharded database this is the total budget one
	// query spends across the shards it fans out to, so fan-out × refine
	// parallelism never oversubscribes the machine.
	RefineWorkers int
	// Band is the default Sakoe–Chiba band half-width queries search under.
	// 0 (the zero value) answers the paper's unconstrained time warping
	// distance — the historical behavior. A value ≥ 1 makes every query
	// answer the banded distance BandDistance(S, Q, band) instead: only
	// warpings within the band are permissible, which both sharpens the
	// similarity model and unlocks the banded envelope cascade tiers
	// (LB_Keogh on the banded envelope and Lemire's LB_Improved). Negative
	// values are rejected at query time. Per-query override: the band
	// argument of SearchCtx, NearestKCtx and SearchBatchCtx.
	//
	// Every search remains exact for the distance it answers: all filter
	// tiers lower-bound BandDistance (a band only removes permissible
	// warpings, so BandDistance ≥ Distance ≥ every unconstrained bound),
	// and banded results are bit-identical to a brute-force banded scan.
	Band int
	// SeqCacheBytes is accepted and ignored (cmd/bench sets it); goes with ROADMAP 5(c).
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
	// LRU of exact answers keyed by (query, kind, ε or k, band, base). A hit
	// returns the stored matches with zero index, heap, or DTW work and a
	// fresh RequestID. Coherence is by write generation:
	// every Add/AddAll/AddBatch/Remove/Repair bumps a per-database counter,
	// and an entry whose generation stamp is stale is discarded on lookup —
	// a cached answer is therefore always bit-identical to a recomputation
	// (see internal/core.ResultCache). 0 disables the cache. On a sharded
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
	// fsyncs instead of paying one each. Ignored by in-memory databases,
	// which have nothing durable to protect. See internal/wal and
	// DESIGN.md §14.
	WAL bool
	// WALFlushInterval is how long the WAL committer lingers after the
	// first record of a batch before fsyncing, bounding write latency to
	// roughly the interval plus one fsync (0 = wal.DefaultFlushInterval,
	// 2ms; negative = fsync as soon as the committer wakes).
	WALFlushInterval time.Duration
	// WALCheckpointBytes auto-checkpoints (full Flush + log reset) when
	// the log file grows past it, bounding replay time and the window a
	// replica can lag before needing a snapshot re-bootstrap
	// (0 = 64 MiB; negative disables auto-checkpointing).
	WALCheckpointBytes int64
}

// refineWorkers resolves the intra-query parallelism default. The public
// layer (not core) owns the GOMAXPROCS resolution so zero-valued direct
// core constructions stay serial and deterministic.
func (o Options) refineWorkers() int {
	if o.RefineWorkers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.RefineWorkers
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

// RepairStats summarizes the Open-time reconciliation between the sequence
// heap and the feature index (see Open and Repair).
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
	index     core.Index // a *core.FlatIndex outside fault-injection tests
	envs      *core.EnvStore
	base      Base
	dir       string // empty when in-memory
	opts      Options
	repair    RepairStats
	openNotes []string // one line per Open-time repair/rebuild (OpenDiagnostics)
	// gen is the write generation: bumped after every mutation
	// (Add/AddAll/Remove/Repair) and read by queries before their first
	// index or heap access, it stamps result-cache entries so a cached
	// answer is served only while the database is byte-for-byte the one
	// that computed it.
	gen    atomic.Uint64
	rcache *core.ResultCache // nil when Options.ResultCacheBytes == 0
	// wal is the group-commit write-ahead log (nil unless Options.WAL on
	// an on-disk database); walReplayed records that Open applied logged
	// mutations, forcing a reconcile + checkpoint before Open returns.
	wal         *wal.Log
	walReplayed bool
}

const (
	indexFileName = "feature.flat"  // the index: packed snapshot + delta section
	rtreeFileName = "feature.rtree" // the paged R-tree older versions served from; converted on open
	envsFileName  = "envelopes.paa"
)

// indexOptions assembles the index options of a database in dir ("" = in
// memory).
func (o Options) indexOptions(dir string) core.IndexOptions {
	io := core.IndexOptions{PageSize: o.PageSize}
	if dir != "" {
		io.OnDiskPath = filepath.Join(dir, indexFileName)
	}
	return io
}

// note records one Open-time diagnostic line (see OpenDiagnostics).
func (db *DB) note(format string, args ...any) {
	db.openNotes = append(db.openNotes, fmt.Sprintf(format, args...))
}

// OpenDiagnostics returns one human-readable line per repair or rebuild the
// most recent Open performed — index rebuilt from the heap,
// snapshot file rejected by its checksum, envelope sidecar re-derived.
// Empty when the database opened clean. twsimd logs each line at startup so
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
	store, err := seqdb.NewMem(seqdb.Options{PageSize: opts.PageSize})
	if err != nil {
		return nil, err
	}
	index, err := core.NewFlatIndex(opts.indexOptions(""))
	if err != nil {
		store.Close()
		return nil, err
	}
	return &DB{store: store, index: index, envs: core.NewEnvStore(), base: opts.Base, opts: opts,
		rcache: core.NewResultCache(opts.ResultCacheBytes)}, nil
}

// Create creates a new on-disk database in directory dir.
func Create(dir string, opts Options) (*DB, error) {
	store, err := seqdb.Create(dir, seqdb.Options{PageSize: opts.PageSize})
	if err != nil {
		return nil, err
	}
	index, err := core.NewFlatIndex(opts.indexOptions(dir))
	if err != nil {
		store.Close()
		return nil, err
	}
	db := &DB{store: store, index: index, base: opts.Base, dir: dir, opts: opts,
		rcache: core.NewResultCache(opts.ResultCacheBytes)}
	if db.envs, err = core.CreateEnvStore(filepath.Join(dir, envsFileName)); err != nil {
		db.Close()
		return nil, fmt.Errorf("twsim: creating envelope store: %w", err)
	}
	if opts.WAL {
		if db.wal, err = wal.Create(filepath.Join(dir, walFileName), 1, opts.walOptions()); err != nil {
			db.Close()
			return nil, err
		}
	}
	return db, nil
}

// Open opens an existing on-disk database.
//
// Open is self-healing: when the feature index and the sequence heap
// disagree — an interrupted write left an orphaned heap record or a
// dangling index entry — Open reconciles them by re-deriving feature
// vectors from the live heap records and patching the index, and when the
// index file is missing or unreadable it is rebuilt from scratch by
// scanning the heap. The envelope sidecar is healed by the same scan. The
// heap is the source of truth; index and sidecar are always derivable from
// it. LastRepair reports what, if anything, was fixed.
//
// A directory last served by a version that kept the index as a paged
// R-tree (feature.rtree) is converted the same way, once: the flat index
// is built from the heap and the R-tree file removed. Temp files a killed
// Flush left in the directory are removed too. Both leave a line in
// OpenDiagnostics.
func Open(dir string, opts Options) (*DB, error) {
	store, err := seqdb.Open(dir, seqdb.Options{PageSize: opts.PageSize})
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("twsim: %s does not contain a database: %w", dir, err)
	}
	if err != nil {
		// The heap is the source of truth: unlike a bad index file or
		// sidecar there is nothing to rebuild a damaged heap from.
		return nil, fmt.Errorf("twsim: the sequence heap in %s cannot be opened: %w", dir, err)
	}
	db := &DB{store: store, base: opts.Base, dir: dir, opts: opts,
		rcache: core.NewResultCache(opts.ResultCacheBytes)}
	stale, err := fsx.RemoveStaleTemps(dir)
	for _, name := range stale {
		db.note("stale temp file %s removed-on-open (left by an interrupted flush)", name)
	}
	if err != nil {
		// Leftovers waste space, nothing reads them: not worth failing Open.
		db.note("stale temp cleanup stopped: %v", err)
	}
	if opts.WAL {
		// Replay the WAL tail over the heap before the index opens: the
		// reconcile pass below works against whatever the heap holds, so
		// recovered appends and tombstones are re-indexed (or dropped) by
		// the exact same LastRepair machinery an unlogged crash uses.
		if err := db.openWAL(); err != nil {
			store.Close()
			return nil, fmt.Errorf("twsim: write-ahead log: %w", err)
		}
	}
	// From here db.Close releases whatever was opened so far.
	rtreePath := filepath.Join(dir, rtreeFileName)
	_, statErr := os.Stat(rtreePath)
	hasRtree := statErr == nil
	index, err := core.OpenFlatIndex(filepath.Join(dir, indexFileName), opts.indexOptions(dir))
	rebuilt := err != nil
	if rebuilt {
		// Unopenable (missing, truncated, corrupt CRC, a delta contradicting
		// the slab): start from an empty index the reconcile pass bulk-loads.
		if hasRtree && errors.Is(err, fs.ErrNotExist) {
			db.note("index converted from guttman to flat: %s built from the heap, %s removed", indexFileName, rtreeFileName)
		} else {
			db.note("index file=%s rebuilt-on-open: %v", indexFileName, err)
		}
		if index, err = core.NewFlatIndex(opts.indexOptions(dir)); err != nil {
			db.Close()
			return nil, err
		}
	}
	db.index = index
	envs, envNotes, err := core.OpenEnvStore(filepath.Join(dir, envsFileName))
	if err != nil {
		// Missing, written by an older version, or unreadable: start an
		// empty sidecar the reconcile pass fills.
		db.note("envelope-sidecar rebuilt-on-open: %v", err)
		if envs, err = core.CreateEnvStore(filepath.Join(dir, envsFileName)); err != nil {
			db.Close()
			return nil, fmt.Errorf("twsim: creating envelope store: %w", err)
		}
	}
	db.envs = envs
	for _, line := range envNotes {
		db.note("%s", line)
	}
	// Replayed mutations can leave the live count unchanged (an add plus a
	// remove) while contents diverge, so any replay forces the reconcile
	// rather than trusting the count checks alone. Those suffice otherwise:
	// IDs are never reused, so an index entry or a stored envelope can only
	// be present-or-absent, never wrong for a live ID.
	if rebuilt || db.walReplayed || index.Len() != store.Len() || envs.Len() != store.Len() {
		indexed, stored := index.Len(), envs.Len()
		if _, err := db.reconcile(rebuilt); err != nil {
			db.Close()
			return nil, err
		}
		if !rebuilt && (db.walReplayed || indexed != store.Len()) {
			db.note("index reconciled-on-open: indexed=%d live=%d", indexed, store.Len())
		}
		if db.repair.Envelopes > 0 || stored != envs.Len() {
			db.note("envelope-sidecar reconciled-on-open: stored=%d derived=%d live=%d", stored, db.repair.Envelopes, store.Len())
		}
		if err := db.Flush(); err != nil {
			db.Close()
			return nil, err
		}
	}
	if hasRtree {
		if err := os.Remove(rtreePath); err != nil {
			db.note("removing %s: %v", rtreeFileName, err)
		}
	}
	return db, nil
}

// LastRepair returns the statistics of the reconciliation Open (or Repair)
// performed. The zero value means the database opened consistent.
func (db *DB) LastRepair() RepairStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.repair
}

// Repair reconciles the feature index and the envelope store with the live
// heap records on demand — the fsck-and-fix counterpart to Verify, usable
// on any database (not just at Open time). When the index structure is
// intact it is patched in place (orphans re-indexed, dangling entries
// removed); when it is damaged beyond entry-level patching the index is
// rebuilt from the heap, which is always possible because the heap is the
// source of truth. It returns what it had to change.
func (db *DB) Repair() (RepairStats, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.repairLocked()
}

func (db *DB) repairLocked() (RepairStats, error) {
	// Whatever inconsistency prompted the repair may have touched the
	// envelopes too, and Open's reconcile trusts the ones it finds: drop
	// them all, so the scan below re-derives every one.
	for id := 0; id < db.store.NumRecords(); id++ {
		db.envs.Remove(ID(id))
	}
	return db.reconcile(false)
}

// reconcile brings index and envelope store back in line with the heap in
// one heap scan (core.Reconcile), patching the index in place. fresh says
// the index is an empty replacement for a file that could not be opened;
// an index whose structure is damaged, or that cannot be patched, is
// replaced the same way here. The scan then bulk-loads it and the repair
// counts as a rebuild.
func (db *DB) reconcile(fresh bool) (RepairStats, error) {
	defer db.gen.Add(1)
	if !fresh {
		if db.index.CheckInvariants() == nil {
			if rs, err := core.Reconcile(db.store, db.index, db.envs); err == nil {
				db.repair = rs
				return rs, nil
			}
		}
		db.index.Close()
		index, err := core.NewFlatIndex(db.opts.indexOptions(db.dir))
		if err != nil {
			return db.repair, fmt.Errorf("twsim: rebuilding index: %w", err)
		}
		db.index = index
	}
	rs, err := core.Reconcile(db.store, db.index, db.envs)
	if err != nil {
		return rs, fmt.Errorf("twsim: rebuilding index: %w", err)
	}
	db.repair = RepairStats{Rebuilt: true, LiveSequences: rs.LiveSequences, Envelopes: rs.Envelopes}
	return db.repair, nil
}

// Base returns the configured base distance.
func (db *DB) Base() Base { return db.base }

// Len returns the number of stored sequences.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.store.Len()
}

// applyAdd performs the in-memory/in-heap half of Add: validate, append,
// index, envelope. addLocked in durability.go owns WAL logging; Add owns the
// lock and the durability acknowledgment.
func (db *DB) applyAdd(values []float64) (ID, error) {
	if err := seq.CheckFinite(values); err != nil {
		return seq.InvalidID, err
	}
	// Bump the write generation after the mutation, before returning —
	// including on a rolled-back failure (the rollback is best effort, so
	// over-invalidating the result cache is the conservative side).
	defer db.gen.Add(1)
	s := seq.Sequence(values)
	id, err := db.store.Append(s)
	if err != nil {
		return seq.InvalidID, err
	}
	if err := db.index.Insert(id, s); err != nil {
		if rbErr := db.store.RollbackLast(id); rbErr != nil {
			return seq.InvalidID, fmt.Errorf("twsim: sequence %d not indexed (%w) and not rolled back: %v", id, err, rbErr)
		}
		return seq.InvalidID, fmt.Errorf("twsim: sequence %d not indexed (rolled back): %w", id, err)
	}
	if pe, err := seq.ExtractPAAEnvelope(s); err == nil {
		db.envs.Put(id, pe)
	}
	return id, nil
}

// applyAddAll performs the in-memory/in-heap half of AddAll (see AddAll in
// durability.go for the contract).
func (db *DB) applyAddAll(values [][]float64) (ID, error) {
	if len(values) == 0 {
		return seq.InvalidID, errors.New("twsim: AddAll of empty batch")
	}
	defer db.gen.Add(1)
	// Validate the whole batch before the first append: a non-finite
	// sequence mid-batch would otherwise trigger the rollback machinery for
	// an error that was knowable upfront.
	for i, v := range values {
		if err := seq.CheckFinite(v); err != nil {
			return seq.InvalidID, fmt.Errorf("twsim: batch sequence %d: %w", i, err)
		}
	}
	appended := make([]ID, 0, len(values))
	indexed := make([]seq.Sequence, 0, len(values)) // sequences with index entries
	// rollback undoes the partial batch in reverse append order; storage
	// errors during rollback are secondary — Open-time reconciliation
	// covers whatever best effort could not.
	rollback := func() {
		for i := len(appended) - 1; i >= 0; i-- {
			if i < len(indexed) {
				_, _ = db.index.Delete(appended[i], indexed[i])
			}
			db.envs.Remove(appended[i])
			_ = db.store.RollbackLast(appended[i])
		}
		if db.index.Len() != db.store.Len() {
			// An index delete failed too (the storage fault that aborted
			// the batch is likely still active). Fall back to rebuilding
			// the index from the heap, which is the source of truth; if
			// even that fails the divergence is caught at the next Open.
			_, _ = db.repairLocked()
		}
	}
	if db.store.Len() > 0 {
		for _, v := range values {
			s := seq.Sequence(v)
			id, err := db.store.Append(s)
			if err != nil {
				rollback()
				return seq.InvalidID, err
			}
			appended = append(appended, id)
			if err := db.index.Insert(id, s); err != nil {
				rollback()
				return seq.InvalidID, fmt.Errorf("twsim: batch aborted at sequence %d: %w", len(appended)-1, err)
			}
			indexed = append(indexed, s)
			if pe, err := seq.ExtractPAAEnvelope(s); err == nil {
				db.envs.Put(id, pe)
			}
		}
		return appended[0], nil
	}
	features := make([]seq.Feature, 0, len(values))
	for _, v := range values {
		s := seq.Sequence(v)
		f, err := seq.ExtractFeature(s)
		if err != nil {
			rollback()
			return seq.InvalidID, err
		}
		id, err := db.store.Append(s)
		if err != nil {
			rollback()
			return seq.InvalidID, err
		}
		appended = append(appended, id)
		features = append(features, f)
	}
	// BulkLoad is internally atomic: on failure the index is still empty
	// and only the heap appends need undoing.
	if err := db.index.BulkLoad(appended, features); err != nil {
		rollback()
		return seq.InvalidID, err
	}
	for i, id := range appended {
		if pe, err := seq.ExtractPAAEnvelope(seq.Sequence(values[i])); err == nil {
			db.envs.Put(id, pe)
		}
	}
	return appended[0], nil
}

// applyRemove performs the in-memory/in-heap half of Remove (see Remove in
// durability.go).
func (db *DB) applyRemove(id ID) (bool, error) {
	defer db.gen.Add(1)
	sc := seqdb.AcquireScratch()
	defer sc.Release()
	s, err := db.store.Fetch(id, sc)
	if err != nil {
		if errors.Is(err, seqdb.ErrDeleted) || errors.Is(err, seqdb.ErrNotFound) {
			return false, nil
		}
		return false, err
	}
	if _, err := db.index.Delete(id, s); err != nil {
		return false, err
	}
	db.envs.Remove(id)
	return db.store.Delete(id)
}

// Get fetches a stored sequence by ID; the result is the caller's own.
func (db *DB) Get(id ID) ([]float64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.store.Get(id)
}

// searcher builds the query engine with the given intra-query worker count
// and Sakoe–Chiba band half-width (0 = unconstrained). ctx, when non-nil,
// cancels the query at its next candidate boundary.
func (db *DB) searcher(ctx context.Context, workers, band int) *core.TWSimSearch {
	return &core.TWSimSearch{DB: db.store, Index: db.index, Base: db.base,
		Workers: workers, Band: band, Envs: db.envs, Ctx: ctx}
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
// and the wording of its slow-log line. rangeCall and knnCall build the two
// kinds, so runQuery never asks which one it is serving.
type queryCall struct {
	family   byte // core.ResultCacheKey family: 'r' = range, 'k' = k-NN
	query    []float64
	epsilon  float64 // range tolerance; 0 for k-NN
	k, band  int     // k is the neighbour count; 0 for range
	logKind  string
	logParam string
}

func rangeCall(query []float64, epsilon float64, band int) queryCall {
	return queryCall{family: 'r', query: query, epsilon: epsilon, band: band,
		logKind: "search", logParam: fmt.Sprintf("epsilon=%g band=%d", epsilon, band)}
}

func knnCall(query []float64, k, band int) queryCall {
	return queryCall{family: 'k', query: query, k: k, band: band,
		logKind: "knn", logParam: fmt.Sprintf("k=%d band=%d", k, band)}
}

// runQuery is the one protocol every single-query entry point of both
// backends runs: validate → probe the whole-query result cache → attach the
// deadline → compute → store → stamp the request ID and slow-log. gen reads
// the backend's write generation; compute runs the actual search under the
// deadline-bearing context. (A range door rejects a negative tolerance
// before calling.)
//
// Coherence (DESIGN.md §13.2) is stated over this function alone: gen() is
// loaded before any index or heap read of the query — the probe and compute
// both come after it — a hit is served only when the entry's stamp equals
// that reading, and a computed answer is stored under the same pre-query
// reading, so any write that overlaps the computation has bumped the
// generation past the stamp and the entry is stale on its first lookup.
func runQuery(ctx context.Context, o Options, rc *core.ResultCache, gen func() uint64,
	c queryCall, compute func(ctx context.Context) (*Result, error)) (*Result, error) {
	if err := validateQuery(c.query, c.band); err != nil {
		return nil, err
	}
	start := time.Now()
	var (
		key    string
		preGen uint64
		res    *Result
	)
	if rc != nil {
		key = core.ResultCacheKey(c.family, o.Base, c.band, c.epsilon, c.k, c.query)
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
			rc.Put(key, preGen, res.Matches)
		}
	}
	res.RequestID = nextRequestID()
	o.logSlowQuery(c.logKind, res.RequestID, len(c.query), c.logParam, res.Stats)
	return res, nil
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
	return db.SearchBandWorkersCtx(ctx, query, epsilon, band, db.opts.refineWorkers())
}

// SearchBandWorkersCtx is SearchCtx with an explicit intra-query refinement
// worker count for this call (≤ 1 means serial), overriding
// Options.RefineWorkers; results are bit-identical at every worker count.
// It is the form the sharded engine calls per shard (shard.Store) to spread
// one refine budget across the shards a query fans out to.
func (db *DB) SearchBandWorkersCtx(ctx context.Context, query []float64, epsilon float64, band, workers int) (*Result, error) {
	if epsilon < 0 {
		return nil, errNegativeTolerance(epsilon)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return runQuery(ctx, db.opts, db.rcache, db.gen.Load, rangeCall(query, epsilon, band),
		func(ctx context.Context) (*Result, error) {
			return db.searcher(ctx, workers, band).Search(seq.Sequence(query), epsilon)
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
			ms, stats, err := db.searcher(ctx, db.opts.refineWorkers(), band).NearestKSharedStats(seq.Sequence(query), k, nil)
			if err != nil {
				return nil, err
			}
			return &Result{Matches: ms, Stats: stats}, nil
		})
}

// StorageStats snapshots the storage-layer counters: the data buffer pool.
func (db *DB) StorageStats() StorageStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return StorageStats{Data: db.store.Stats()}
}

// Distance computes the exact time warping distance between a stored
// sequence and an arbitrary query under the database's base distance.
func (db *DB) Distance(id ID, query []float64) (float64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	sc := seqdb.AcquireScratch()
	defer sc.Release()
	s, err := db.store.Fetch(id, sc)
	if err != nil {
		return 0, err
	}
	return Distance(s, query, db.base), nil
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

// Flush persists all state to disk (no-op for in-memory databases) at a
// cost set by what changed, not by the database's size: the heap's dirty
// pages and its directory, the index file (slab plus delta, never a merge)
// and the envelope chunks touched since the last Flush. With the WAL
// enabled a successful Flush is also a checkpoint: once the heap pages are
// fsynced, the manifest renamed and dir-synced, and the index and envelope
// sidecar saved, every logged mutation is durable by other means, so the
// log resets to an empty file with a higher base sequence number (pending
// waiters are released — their records are durable too).
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.flushLocked()
}

func (db *DB) flushLocked() error {
	if err := db.store.Flush(); err != nil {
		return err
	}
	if err := db.index.Flush(); err != nil {
		return err
	}
	if err := db.envs.Save(); err != nil {
		return fmt.Errorf("twsim: saving envelope store: %w", err)
	}
	if db.wal != nil {
		if err := db.wal.Checkpoint(); err != nil {
			return fmt.Errorf("twsim: wal checkpoint: %w", err)
		}
	}
	return nil
}

// Close flushes and releases the database; the index folds its delta into
// the packed snapshot on the way out. With the WAL enabled the log is
// checkpointed (emptied) on a clean close, so the next Open has nothing to
// replay. The heap is made durable first: the index and the sidecar must
// never be ahead of it on disk.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	err := db.store.Close()
	if db.index != nil {
		if ierr := db.index.Close(); err == nil {
			err = ierr
		}
	}
	if eerr := db.envs.Close(); eerr != nil && err == nil {
		err = fmt.Errorf("twsim: saving envelope store: %w", eerr)
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
	return err
}
