// Package twsim is an index-based similarity search engine for large
// sequence databases supporting time warping, reproducing Kim, Park & Chu,
// "An Index-Based Approach for Similarity Search Supporting Time Warping in
// Large Sequence Databases" (ICDE 2001).
//
// A twsim.DB stores numeric sequences of arbitrary (and differing) lengths
// in a paged heap file and maintains the paper's 4-dimensional feature
// index: each sequence S contributes the time-warping-invariant point
// (First(S), Last(S), Greatest(S), Smallest(S)) to an R-tree — served as one
// packed, pointer-free slab plus a small delta of recent writes, which
// answers bit-identically to the paper's paged Guttman R-tree (kept as the
// experiments' baseline). Range queries under
// the time warping distance run as a square range query on the index using
// the lower-bound metric Dtw-lb followed by exact dynamic-programming
// refinement — guaranteed free of false dismissal (the paper's Theorems 1
// and 2) while touching only a small fraction of the database.
//
// # Quick start
//
//	db, _ := twsim.OpenMem(twsim.Options{})
//	defer db.Close()
//	id, _ := db.Add([]float64{20, 21, 21, 20, 20, 23, 23, 23})
//	_ = id
//	res, _ := db.Search([]float64{20, 20, 21, 20, 23}, 1.5)
//	for _, m := range res.Matches {
//		fmt.Println(m.ID, m.Dist)
//	}
//
// Search and NearestK are the paper's API. Each is a two-line wrapper over
// the one door its query kind has — SearchCtx and NearestKCtx — which take
// a context (cancellation, deadlines) and an explicit Sakoe–Chiba band
// half-width; those two are the whole query surface of the Backend
// interface. A query runs on the goroutine that calls it (a sharded
// backend fans it out across its shards); a caller with many queries runs
// them from its own goroutines.
//
// A database answers the paper's similarity model, the time warping
// distance over the L∞ base (§4.1). Beyond the paper's range search the
// package provides exact k-nearest-neighbor search (enabled by Dtw-lb being
// a true lower bound), direct access to the DTW distance family under the
// L∞, L1 and squared-L2 bases (Distance, DistanceWithin, BandDistance,
// warping paths), and the paper's evaluated baselines for benchmarking (see
// the Baseline* constructors).
//
// # Query pipeline
//
// The index walk applies the paper's Dtw-lb (LB_Kim) to the stored 4-tuples;
// candidate refinement then runs through a short cascade of true lower
// bounds, cheapest first, each kept because a benchmark workload shows it
// pruning: LB_PAA against the candidate's stored 16-segment envelope (before
// the heap fetch; every envelope lives in one store, looked up by ID, and
// the same bound keys the k-NN walk), LB_Keogh on the banded envelope for
// banded queries over equal lengths, and finally a fused early-abandoning
// dynamic program
// that computes, per row, only the window spanning the DP cells whose exact
// value stays within the cutoff (compared branch-free as bit patterns) —
// rejecting hopeless candidates at a fraction of a full evaluation and
// producing the exact distance for survivors in the same pass. Every tier
// preserves the no-false-dismissal guarantee, results are bit-identical to
// running the plain DP on every candidate (the test suites compare against
// exactly that, as a brute-force scan), and the DP kernels reuse pooled
// rows, so steady-state refinement performs no allocations. Result.Stats
// reports per-tier dismissal counters alongside the exact-DTW call count.
//
// # Crash consistency
//
// The no-false-dismissal guarantee only holds while the heap file and the
// feature index agree, so every write follows one rule: every check that
// can refuse it runs before the first mutation, the heap publishes it only
// once all of its bytes are written, and the index and envelope updates
// after that cannot fail:
//
//   - Add, AddAll and AddBatch are one path: validate the whole batch, let
//     the heap take all of it or none, then index it and store its
//     envelopes. A failed write leaves nothing behind and can be retried.
//   - With the WAL on, a write the log refuses is taken back whole, which
//     cannot fail either.
//   - Open derives. The heap is the source of truth, and the feature index
//     and the PAA envelopes are functions of it: every Open builds both in
//     one heap scan and one bulk load, and no index or envelope file is
//     ever read. A heap record a crash left unindexed, or an index entry
//     whose record never became durable, therefore cannot outlive an Open.
//     A feature.rtree or envelopes.paa an older version kept, and temp
//     files a killed Flush left, are removed with a line in
//     OpenDiagnostics. A heap page that fails its checksum makes Open fail,
//     naming the page: an index cannot be derived from records that cannot
//     be read.
//   - Flush (and the WAL checkpoint built on it) writes the heap's dirty
//     pages and its directory, nothing else. Close also leaves the merged
//     index in feature.flat for tools outside the database; Open removes
//     it unread.
//   - Verify is the read-only integrity check (fsck); Repair is its
//     fixing counterpart, usable on a live database: it derives the index
//     and the envelopes again, as Open does. LastRepair reports it.
//
// Searches additionally skip index entries whose heap record is missing,
// so a not-yet-repaired database degrades to extra filtering work rather
// than failed or incorrect queries.
//
// # Sharding
//
// ShardedDB hash-partitions a database into N shards, each a complete DB
// (own heap file, feature index, and buffer pool), and fans every query out over
// all of them in parallel, merging the per-shard results into the same
// answer a single DB would return. Sequence IDs encode their shard
// (ShardID(id) = id mod N), a writer locks only its target shard (each
// shard's own DB lock: readers share, a writer excludes), and
// k-nearest-neighbor fan-out shares an atomic best-k bound across shards
// so each prunes with the globally tightest cutoff. Both DB and ShardedDB
// satisfy the Backend interface and are safe for concurrent use; CreateSharded, OpenSharded, and
// OpenMemSharded mirror the single-database constructors, each shard
// deriving its index from its own heap on open.
//
// # One query, one goroutine, and caching
//
// A query refines its candidates — the heap fetch, the lower-bound cascade
// and the exact DTW — in one loop on the goroutine that serves it, the
// paper's TW-Sim-Search. Throughput comes from running queries side by
// side (a DB is safe for concurrent use) and, on a sharded database, from
// the shard fan-out; Options.RefineWorkers is accepted and ignored. On a
// single database a query's work counters follow the data and the index's
// state, not the scheduler: a k-NN walk reads only its own k-th-best
// cutoff. Only a sharded k-NN query shares state, its cross-shard bound.
//
// Each query fetches its candidates into scratch of its own: on a
// file-backed database one positional read of the pages the record
// covers, checksums verified, no pool frame and no allocation; the record
// still being appended to, and every record of an in-memory database, is
// copied out of the lock-striped buffer pool (pages hash to independently
// locked stripes, so concurrent faults on different pages do not
// serialize). Reads by ID go the same way — Get is that fetch plus the one
// allocation that makes the result the caller's own, Distance keeps
// nothing — and there is no sequence cache (Options.SeqCacheBytes is
// accepted and ignored). DB.StorageStats exposes the pool's wait-free
// counters; a direct read counts as the pool misses it replaced. (The pool
// is the heap file's: the index is walked in place, mapped or in memory.)
//
// # Input validation and observability
//
// Sequences must be finite: every write and query entry point rejects
// data containing NaN or ±Inf with ErrNonFinite. The exactness guarantees
// are only defined over the reals — a NaN slips through the kernels'
// ordered comparisons as if it were −∞ or +∞ (depending on the kernel)
// and through the index's rectangle predicates arbitrarily, so a single
// stored NaN once made two provably-exact search methods silently return
// different answers. Verify and CheckInvariants flag non-finite features
// that reach the index some other way (DESIGN.md §10 has the full story).
//
// For production serving, every query Result carries a process-unique
// RequestID, and Options.SlowQueryThreshold enables a slow-query log (one
// flat key=value line per offending query, carrying that same request ID
// plus per-phase timings and the cascade's work counters; destination
// Options.SlowQueryLogger, default log.Default()). QueryStats splits wall
// time into FilterWall and RefineWall, and the HTTP server in
// internal/server exports the whole pipeline — request counters, latency
// histograms, cascade/pool/cache counters — as a Prometheus /metrics
// endpoint built on the dependency-free internal/obs package.
package twsim
