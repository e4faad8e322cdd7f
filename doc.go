// Package twsim is an index-based similarity search engine for large
// sequence databases supporting time warping, reproducing Kim, Park & Chu,
// "An Index-Based Approach for Similarity Search Supporting Time Warping in
// Large Sequence Databases" (ICDE 2001).
//
// A twsim.DB stores numeric sequences of arbitrary (and differing) lengths
// in a paged heap file and maintains the paper's 4-dimensional feature
// index: each sequence S contributes the time-warping-invariant point
// (First(S), Last(S), Greatest(S), Smallest(S)) to an R-tree — served as one
// packed, pointer-free slab plus a small delta of recent writes
// (feature.flat), which answers bit-identically to the paper's paged
// Guttman R-tree (kept as the experiments' baseline). Range queries under
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
// the one door its query kind has — SearchCtx, NearestKCtx, and
// SearchBatchCtx for many range queries at once — which take a context
// (cancellation, deadlines) and an explicit Sakoe–Chiba band half-width;
// those three are the whole query surface of the Backend interface.
//
// Beyond the paper's range search the package provides exact k-nearest-
// neighbor search (enabled by Dtw-lb being a true lower bound), direct
// access to the DTW distance family (Distance, DistanceWithin,
// BandDistance, warping paths), and the paper's evaluated baselines for
// benchmarking (see the Baseline* constructors).
//
// # Query pipeline
//
// The index walk applies the paper's Dtw-lb (LB_Kim) to the stored 4-tuples;
// candidate refinement then runs through a short cascade of true lower
// bounds, cheapest first, each kept because a benchmark workload shows it
// pruning: LB_PAA against the candidate's stored 16-segment envelope (before
// the heap fetch; every envelope lives in one store, looked up by ID, and
// the same bound keys the k-NN walk), for banded queries over equal lengths
// LB_Keogh on the banded envelope and Lemire's LB_Improved second pass, and
// finally a fused early-abandoning dynamic program
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
// feature index agree, so the write path keeps them in lockstep:
//
//   - Add appends to the heap first and indexes second; when indexing
//     fails the append is rolled back, so a failed Add can simply be
//     retried and never leaves a half-written sequence behind.
//   - AddAll is all-or-nothing: on a mid-batch failure every appended
//     sequence (and any index entry already made for it) is rolled back.
//     The STR bulk load used on an empty database is internally atomic.
//   - Open reconciles after a crash, in one pass over the heap. The heap
//     is the source of truth; the index and the envelope sidecar are always
//     derivable from it: orphaned heap records (a crash between append and
//     index insert) are re-indexed, dangling index entries are deleted,
//     missing envelopes derived (a sidecar chunk that fails its checksum
//     costs that chunk only), and an unopenable index file is rebuilt
//     outright — as it is, once, for a directory that still holds an older
//     version's feature.rtree, which is then removed. Temp files a killed
//     Flush left behind are removed. LastRepair reports what was fixed,
//     OpenDiagnostics why.
//   - Flush (and the WAL checkpoint built on it) costs what changed: the
//     index file is rewritten as slab plus delta with no merge, the sidecar
//     only in the 1024-envelope chunks touched since the last Flush. The
//     delta is folded into the slab by background merges (every 4096
//     entries) and by Close.
//   - Verify is the read-only integrity check (fsck); Repair is its
//     fixing counterpart, usable on a live database.
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
// OpenMemSharded mirror the single-database constructors, with per-shard
// crash reconciliation on open.
//
// # Intra-query parallelism and caching
//
// Options.RefineWorkers sets the per-query refinement budget: the
// candidate fetch, lower-bound cascade, and exact DTW verification run on
// up to that many goroutines (0 selects GOMAXPROCS; 1 is the exact serial
// path). On a sharded database the budget is divided among the shards a
// query fans out to, so fan-out times refine workers never exceeds the
// budget. Results are bit-identical at every setting — for range queries
// the fixed tolerance makes each candidate's verdict order-independent,
// and for k-NN the shrinking cutoff is only ever read conservatively
// (stale reads admit extra candidates, never dismiss true neighbors).
//
// Each refinement worker fetches its candidates into scratch of its own: on
// a file-backed database one positional read of the pages the record
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
