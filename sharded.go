package twsim

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/fsx"
	"repro/internal/seq"
	"repro/internal/shard"
)

// ShardedOptions configures a ShardedDB.
type ShardedOptions struct {
	// Options configures each shard (base distance, page size, band, WAL).
	Options
	// Shards is the number of hash partitions (0 = 1). The count is fixed
	// at creation and persisted; OpenSharded rejects a conflicting value.
	Shards int
	// Parallelism bounds the fan-out worker pool each Search/NearestK
	// uses across shards (0 = GOMAXPROCS).
	Parallelism int
}

func (o ShardedOptions) shardCount() int {
	if o.Shards <= 0 {
		return 1
	}
	return o.Shards
}

// perShard derives each shard's Options from the sharded configuration:
// the result cache and the query deadline act once, at the top level — a
// per-shard cache would hold partial answers no top-level query can reuse,
// and a per-shard deadline would restart the clock on every shard a query
// fans out to — so both are zeroed for the shards.
func (o ShardedOptions) perShard() Options {
	po := o.Options
	po.ResultCacheBytes = 0
	po.QueryDeadline = 0
	return po
}

// ShardStat is one shard's contribution to the database statistics.
type ShardStat = shard.ShardStat

// QueryTotals are a shard's cumulative query work counters, including the
// refinement cascade's per-tier prune counts (ShardStat.Queries).
type QueryTotals = shard.QueryTotals

// ShardedDB is a hash-partitioned sequence database: N independent shards
// (each a full DB with its own heap file, feature index, and buffer pools)
// behind one Backend. Searches fan out across shards concurrently and
// merge; Get/Remove route straight to the owning shard; a writer takes only
// its shard's DB lock, so inserts into different shards proceed concurrently.
//
// A sequence stored at local ID l in shard s has global ID l*N + s:
// ShardID(id) = id mod N is a pure function of the ID, stable across
// Close/Open. Like *DB, a ShardedDB is safe for fully concurrent use.
type ShardedDB struct {
	eng  *shard.Engine
	dbs  []*DB // the shards, in shard-ID order (eng routes over the same slice)
	base Base
	dir  string  // empty when in-memory
	opts Options // top-level options; also carries the slow-query config
	// rcache is the engine-level whole-query result cache (nil when
	// disabled); entries are stamped with the summed per-shard write
	// generations (see Generation).
	rcache *core.ResultCache
}

const shardManifestName = "shards.json"

// shardManifest pins the partitioning scheme of an on-disk sharded
// database; the routing function is only stable if the shard count is.
type shardManifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// IsSharded reports whether dir holds a sharded database (created by
// CreateSharded) rather than a single-DB one.
func IsSharded(dir string) bool {
	_, err := readShardManifest(dir)
	return err == nil
}

func readShardManifest(dir string) (shardManifest, error) {
	var m shardManifest
	raw, err := os.ReadFile(filepath.Join(dir, shardManifestName))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("twsim: corrupt shard manifest: %w", err)
	}
	if m.Version != 1 || m.Shards <= 0 {
		return m, fmt.Errorf("twsim: unsupported shard manifest (version %d, %d shards)", m.Version, m.Shards)
	}
	return m, nil
}

func writeShardManifest(dir string, m shardManifest) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return fsx.WriteFileSync(filepath.Join(dir, shardManifestName), append(raw, '\n'), 0o644)
}

func newShardedDB(dbs []*DB, dir string, opts ShardedOptions) (*ShardedDB, error) {
	stores := make([]shard.Store, len(dbs))
	for i, db := range dbs {
		stores[i] = db
	}
	eng, err := shard.New(stores, opts.Parallelism, opts.refineWorkers())
	if err != nil {
		closeAll(dbs)
		return nil, err
	}
	return &ShardedDB{eng: eng, dbs: dbs, base: opts.Base, dir: dir, opts: opts.Options,
		rcache: core.NewResultCache(opts.ResultCacheBytes)}, nil
}

func closeAll(dbs []*DB) {
	for _, db := range dbs {
		if db != nil {
			db.Close()
		}
	}
}

// OpenMemSharded creates an ephemeral in-memory sharded database.
func OpenMemSharded(opts ShardedOptions) (*ShardedDB, error) {
	n := opts.shardCount()
	dbs := make([]*DB, 0, n)
	for i := 0; i < n; i++ {
		db, err := OpenMem(opts.perShard())
		if err != nil {
			closeAll(dbs)
			return nil, err
		}
		dbs = append(dbs, db)
	}
	return newShardedDB(dbs, "", opts)
}

// CreateSharded creates a new on-disk sharded database in dir: a manifest
// pinning the shard count plus one sub-database per shard in
// dir/shard-000, dir/shard-001, …
func CreateSharded(dir string, opts ShardedOptions) (*ShardedDB, error) {
	n := opts.shardCount()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := writeShardManifest(dir, shardManifest{Version: 1, Shards: n}); err != nil {
		return nil, err
	}
	dbs := make([]*DB, 0, n)
	for i := 0; i < n; i++ {
		db, err := Create(filepath.Join(dir, shardDirName(i)), opts.perShard())
		if err != nil {
			closeAll(dbs)
			return nil, fmt.Errorf("twsim: creating shard %d: %w", i, err)
		}
		dbs = append(dbs, db)
	}
	return newShardedDB(dbs, dir, opts)
}

// OpenSharded opens an existing on-disk sharded database. The shard count
// comes from the manifest written at creation; a non-zero
// opts.Shards that disagrees is an error (repartitioning would scramble
// the ID routing). Each shard opens through the same self-healing path as
// a single DB — per-shard heap/index reconciliation — and LastRepair
// aggregates what every shard had to fix.
func OpenSharded(dir string, opts ShardedOptions) (*ShardedDB, error) {
	m, err := readShardManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("twsim: %s does not contain a sharded database: %w", dir, err)
	}
	if opts.Shards != 0 && opts.Shards != m.Shards {
		return nil, fmt.Errorf("twsim: database at %s has %d shards, not %d (the shard count is fixed at creation)",
			dir, m.Shards, opts.Shards)
	}
	dbs := make([]*DB, 0, m.Shards)
	for i := 0; i < m.Shards; i++ {
		db, err := Open(filepath.Join(dir, shardDirName(i)), opts.perShard())
		if err != nil {
			closeAll(dbs)
			return nil, fmt.Errorf("twsim: opening shard %d: %w", i, err)
		}
		dbs = append(dbs, db)
	}
	opts.Shards = m.Shards
	return newShardedDB(dbs, dir, opts)
}

// Base returns the configured base distance.
func (s *ShardedDB) Base() Base { return s.base }

// NumShards returns the number of partitions.
func (s *ShardedDB) NumShards() int { return s.eng.NumShards() }

// ShardID returns the shard owning the given sequence ID.
func (s *ShardedDB) ShardID(id ID) int { return s.eng.ShardOf(id) }

// Len returns the number of live sequences across all shards.
func (s *ShardedDB) Len() int { return s.eng.Len() }

// DataBytes returns the logical size of the stored data, summed over
// shards.
func (s *ShardedDB) DataBytes() int64 { return s.eng.DataBytes() }

// IndexPages returns the feature index size in pages, summed over shards.
func (s *ShardedDB) IndexPages() int { return s.eng.IndexPages() }

// ShardStats returns the per-shard statistics breakdown (for spotting
// skew), indexed by shard ID.
func (s *ShardedDB) ShardStats() []ShardStat { return s.eng.ShardStats() }

// LastRepair aggregates the per-shard Open-time repair statistics.
func (s *ShardedDB) LastRepair() RepairStats { return s.eng.LastRepair() }

// StorageStats snapshots the storage-layer counters summed over shards.
func (s *ShardedDB) StorageStats() StorageStats { return s.eng.StorageStats() }

// IndexEngineStats aggregates the per-shard feature-index engine counters.
func (s *ShardedDB) IndexEngineStats() core.IndexEngineStats { return s.eng.IndexEngineStats() }

// WALStats sums the per-shard write-ahead-log counters (each shard runs
// its own group-commit log; all zero when the WAL is disabled).
func (s *ShardedDB) WALStats() WALStats {
	var total WALStats
	for _, db := range s.dbs {
		total.Add(db.WALStats())
	}
	return total
}

// OpenDiagnostics concatenates every shard's open-time notes, prefixed with
// the shard number.
func (s *ShardedDB) OpenDiagnostics() []string { return s.eng.OpenDiagnostics() }

// Generation is the sharded engine's write generation: the sum of every
// shard's per-DB counter. Each shard bumps its own counter after mutating,
// so the sum read before a fan-out query and re-read at cache-lookup time
// brackets the query exactly as the single-DB counter does — any write
// acknowledged in between strictly increases the sum (counters are
// monotone), so a possibly-tainted cache entry's stamp is stale by
// construction. A write whose bump lands between the two reads only
// over-invalidates, never under-invalidates.
func (s *ShardedDB) Generation() uint64 {
	var g uint64
	for _, db := range s.dbs {
		g += db.gen.Load()
	}
	return g
}

// ResultCacheStats snapshots the engine-level result cache counters (all
// zero when the cache is disabled).
func (s *ShardedDB) ResultCacheStats() core.ResultCacheStats { return s.rcache.Stats() }

// DefaultBand returns the band half-width queries run under when no
// per-call override is given (Options.Band).
func (s *ShardedDB) DefaultBand() int { return s.opts.Band }

// Add stores one sequence, taking only the owning shard's writer lock, and
// returns its global ID. Sequences containing NaN or ±Inf are rejected with
// ErrNonFinite before the placement counter advances, so an invalid Add
// burns no ID.
func (s *ShardedDB) Add(values []float64) (ID, error) {
	if err := seq.CheckFinite(values); err != nil {
		return seq.InvalidID, err
	}
	return s.eng.Add(values)
}

// AddBatch stores a batch split across shards (sub-batches load
// concurrently) and returns every assigned ID in input order. The IDs are
// interleaved across shards, not consecutive. A failed batch is rolled
// back on every shard (see the engine's AddAll for the exact semantics).
// The whole batch is validated for non-finite elements upfront, before any
// shard is touched or any ID is burned.
func (s *ShardedDB) AddBatch(values [][]float64) ([]ID, error) {
	for i, v := range values {
		if err := seq.CheckFinite(v); err != nil {
			return nil, fmt.Errorf("twsim: batch sequence %d: %w", i, err)
		}
	}
	return s.eng.AddAll(values)
}

// Remove deletes a sequence from its owning shard.
func (s *ShardedDB) Remove(id ID) (bool, error) { return s.eng.Remove(id) }

// Get fetches a stored sequence from its owning shard.
func (s *ShardedDB) Get(id ID) ([]float64, error) { return s.eng.Get(id) }

// Search runs the paper's range similarity query fanned out across all
// shards concurrently; results merge to exactly the single-database
// answer. The distance answered is unconstrained when Options.Band is 0,
// banded otherwise. It is SearchCtx with no context and the default band.
func (s *ShardedDB) Search(query []float64, epsilon float64) (*Result, error) {
	return s.SearchCtx(nil, query, epsilon, s.opts.Band)
}

// SearchCtx is the range-query door (see DB.SearchCtx): every shard answers
// the same banded distance, so the merged result equals the single-database
// answer. Stats sum the per-shard work; Wall is the fan-out duration. Once
// ctx is done every shard abandons its work at the next candidate boundary
// and the fan-out returns the context's error; Options.QueryDeadline, when
// set, caps the execution time on top. The engine-level result cache, when
// enabled, is consulted first under the summed write generation (see
// Generation), so a hit skips the entire fan-out.
func (s *ShardedDB) SearchCtx(ctx context.Context, query []float64, epsilon float64, band int) (*Result, error) {
	if epsilon < 0 {
		return nil, errNegativeTolerance(epsilon)
	}
	return runQuery(ctx, s.opts, s.rcache, s.Generation, rangeCall(query, epsilon, band),
		func(ctx context.Context) (*Result, error) { return s.eng.SearchCtx(ctx, query, epsilon, band) })
}

// NearestK runs the exact k-NN search across all shards, sharing a best-k
// bound so laggard shards prune early; the merged result equals the
// single-database answer. It is NearestKCtx with no context and the default
// band, returning only the matches.
func (s *ShardedDB) NearestK(query []float64, k int) ([]Match, error) {
	res, err := s.NearestKCtx(nil, query, k, s.opts.Band)
	if err != nil {
		return nil, err
	}
	return res.Matches, nil
}

// NearestKCtx is the k-NN door (see DB.NearestKCtx): matches plus the
// summed per-shard work counters and the RequestID, with SearchCtx's
// cancellation and caching behavior.
func (s *ShardedDB) NearestKCtx(ctx context.Context, query []float64, k, band int) (*Result, error) {
	return runQuery(ctx, s.opts, s.rcache, s.Generation, knnCall(query, k, band),
		func(ctx context.Context) (*Result, error) { return s.eng.NearestKCtx(ctx, query, k, band) })
}

// SearchBatch runs many range queries concurrently under the default band.
// It is SearchBatchCtx with no context.
func (s *ShardedDB) SearchBatch(queries [][]float64, epsilon float64, parallelism int) ([]*Result, error) {
	return s.SearchBatchCtx(nil, queries, epsilon, s.opts.Band, parallelism)
}

// SearchBatchCtx is the batch door (see DB.SearchBatchCtx): one worker per
// query, each visiting shards serially — see the engine for why that
// maximizes batch throughput. Validation, errors, request IDs and the
// deadline behave exactly as on a single database.
func (s *ShardedDB) SearchBatchCtx(ctx context.Context, queries [][]float64, epsilon float64, band, parallelism int) ([]*Result, error) {
	if err := validateBatch(queries, epsilon, band); err != nil {
		return nil, err
	}
	ctx, cancel := s.opts.applyDeadline(ctx)
	defer cancel()
	out, err := s.eng.SearchBatchCtx(ctx, queries, epsilon, band, parallelism)
	if err != nil {
		return nil, err
	}
	s.opts.stampBatch(queries, out, epsilon, band)
	return out, nil
}

// Distance computes the exact time warping distance between a stored
// sequence and a query under the database's base distance.
func (s *ShardedDB) Distance(id ID, query []float64) (float64, error) {
	values, err := s.eng.Get(id)
	if err != nil {
		return 0, err
	}
	return Distance(values, query, s.base), nil
}

// Verify runs every shard's full heap/index integrity check.
func (s *ShardedDB) Verify() error { return s.eng.Verify() }

// CheckInvariants validates every shard's index structure.
func (s *ShardedDB) CheckInvariants() error { return s.eng.CheckInvariants() }

// Flush persists every shard.
func (s *ShardedDB) Flush() error { return s.eng.Flush() }

// Close flushes and releases every shard.
func (s *ShardedDB) Close() error { return s.eng.Close() }
