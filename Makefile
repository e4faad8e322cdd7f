GO ?= go

.PHONY: ci fmt vet surface loc build test race fuzz-smoke metrics-smoke bench-smoke crash-tests kernels pairs

# Full gate: formatting, static checks (vet plus the query-surface check),
# build, the whole test suite (including the fault-injection recovery tests)
# under the race detector, a short fuzz pass over the envelope/lower-bound
# oracles, the readers of untrusted bytes and the HTTP request decoder, the observability smoke (boots twsimd, scrapes /metrics, validates the
# exposition), the WAL crash-simulation suite (torn tail, corrupt middle
# record, duplicate replay — each recovered state compared record-for-record
# against a never-crashed database), and the benchmark's smoke run.
ci: fmt vet surface build race fuzz-smoke metrics-smoke crash-tests bench-smoke

# Short coverage-guided fuzz passes. The ordering oracles: the block
# sliding min/max envelope vs the quadratic reference, the lower-bound chain
# LB_Keogh <= LB_Improved <= BandDistance with BandDistance >= Distance,
# the banded two-sided LB_PAA on the packed float32 record <= BandDistance
# (exactly, on values float32 cannot hold) and >= the interval-gap form on
# the inward-read bounds, the unbanded pre-fetch tier's decision over a
# record's 16 stored segments vs the DP (a "no" only when Distance > t, at t
# on and one ulp either side of a pair's cost, records of 1–300 elements),
# the rank table that pass reads vs the exact rank searches (its ranks hold
# the exact row at every value, and its "no" is theirs),
# the refine tier's windowed kernel vs the dense DP
# and its banded pass vs the reference banded loop (verdict and bits), the
# bit-parallel L∞ decision vs the dense DP (Within(t) == Distance ≤ t,
# LB_Kim ≤ Distance, and Within(LB_Kim) only when the two are the same
# bits), the DP inside the decision's co-reach windows vs the dense DP (the
# same bits at the distance, one ulp above it and a cutoff further up), the
# flat slab built from entries vs a brute-force range scan, the k-NN walk's
# branch-free L∞ keys vs the branchy loops they replaced and rtree's
# MinDist (the same bits), and the heap's scratch fetch vs Get over scripted
# appends, rollbacks, deletes, flushes and reopens at every page size. The
# readers of bytes from outside the process — the index and envelopes are
# derived from the heap at Open and have none: the heap directory loader
# (whatever dir.bin opens must read without a panic), the WAL record reader
# (no panic; the accepted prefix re-encodes byte for byte), the replication
# snapshot a replica bootstraps from — a header, then WAL frames read by the
# same record reader — (no panic; an accepted snapshot re-encodes to its
# input, header and frames), the index image cmd/bench's replay reads (a
# hostile file errors out or loads an index that holds every invariant and
# walks without faulting), the HTTP request decoder vs encoding/json
# (same verdict, status, error text and decoded bits for every request
# struct), and the load scanner's number conversion vs strconv.ParseFloat
# (same verdict, bits and bytes consumed, on raw bytes and on rendered
# mantissa/exponent tuples). And the result cache's write rule: op lists
# of adds, batch adds, removes, range and k-NN queries against a cached
# database and a cache-off twin (the same IDs and distance bits at every
# step, so an entry kept across a write that changed it fails), and the
# model harness: op lists of adds, removes, queries, flushes, reopens and
# crash images against a database and the brute-force model, at a lattice
# point the first byte picks (the same IDs and distance bits at every
# step). Go permits
# one fuzz target per -fuzz run, so each gets its own pass. Minimizing a
# new input defaults to 60 s, which would eat a 5 s pass; -fuzzminimizetime
# caps it at 100 runs so the pass spends its time fuzzing.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz='^FuzzEnvelopeDeque$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/dtw
	$(GO) test -run=^$$ -fuzz='^FuzzBandedBoundChain$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/dtw
	$(GO) test -run=^$$ -fuzz='^FuzzLBPAASound$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/core
	$(GO) test -run=^$$ -fuzz='^FuzzSegmentDecisionSound$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/core
	$(GO) test -run=^$$ -fuzz='^FuzzRefinerMatchesDistance$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/dtw
	$(GO) test -run=^$$ -fuzz='^FuzzRefinerBandMatchesReference$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/dtw
	$(GO) test -run=^$$ -fuzz='^FuzzDeciderMatchesDistance$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/dtw
	$(GO) test -run=^$$ -fuzz='^FuzzBoundsTableBrackets$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/dtw
	$(GO) test -run=^$$ -fuzz='^FuzzCorridorMatchesDistance$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/dtw
	$(GO) test -run=^$$ -fuzz='^FuzzSlabRoundtrip$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/flatidx
	$(GO) test -run=^$$ -fuzz='^FuzzMmapLoad$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/flatidx
	$(GO) test -run=^$$ -fuzz='^FuzzLInfKernelsMatchReference$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/flatidx
	$(GO) test -run=^$$ -fuzz='^FuzzFetchMatchesGet$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/seqdb
	$(GO) test -run=^$$ -fuzz='^FuzzLoadDirectory$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/seqdb
	$(GO) test -run=^$$ -fuzz='^FuzzScanRecords$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/wal
	$(GO) test -run=^$$ -fuzz='^FuzzDecodeReplSnapshot$$' -fuzztime=5s -fuzzminimizetime=100x .
	$(GO) test -run=^$$ -fuzz='^FuzzResultCacheMatchesRecompute$$' -fuzztime=5s -fuzzminimizetime=100x .
	$(GO) test -run=^$$ -fuzz='^FuzzModelMatchesDB$$' -fuzztime=5s -fuzzminimizetime=100x .
	$(GO) test -run=^$$ -fuzz='^FuzzDecodeMatchesEncodingJSON$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/server
	$(GO) test -run=^$$ -fuzz='^FuzzScanFloatMatchesParseFloat$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/server

# Boots a real twsimd on an ephemeral port, drives traffic, and verifies
# GET /metrics is valid Prometheus exposition with the key series present
# (including the candidates = pruned + dtw_calls conservation law).
metrics-smoke:
	$(GO) build -o bin/twsimd ./cmd/twsimd
	$(GO) run ./cmd/metricssmoke -bin ./bin/twsimd

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repository's one benchmark at toy scale (< 5 s, no output kept): builds
# and spawns a real twsimd, runs all four workloads over HTTP, and checks
# every answer — distances recomputed bit-exact, full scans for no false
# dismissal, the conservation law on the /metrics delta, and kill -9 plus
# read-back of every acknowledged write on the WAL workload. Full runs and
# `-compare` are described in cmd/bench/README.md.
bench-smoke:
	$(GO) run ./cmd/bench -smoke >/dev/null

# The two workload-shaped kernel benchmarks — the pairs range_unbanded
# refines (the refiner alone; the route verifyDP takes: the L∞ decision at ε
# keeping its reach rows and at LB_Kim, then the DP in the rows' co-reach
# windows; and that last step alone on the pairs that reach it, as the
# refiner and as the windowed DP, in ns per window cell and the windows'
# share of the matrix; and the unbanded pre-fetch tier, the decision over
# the 16 stored segments, alone at ε 0.30 and 0.20 — ns per pair, the
# non-results it dismisses, its false dismissals — and in front of the
# route), and the calls knn_banded's DP tier
# sees after banded LB_Keogh — and the decision alone over the
# range pairs (ns per decision), from one test binary on one CPU, five
# times each, then the banded
# LB_PAA that keys knn_banded's walk and guards its heap fetch (ns per call),
# then the candidate fetch both workloads make per candidate (Get beside the
# scratch fetch, on a file-backed heap of the benchmark's shape), then the
# banded cascade as served — k-NN k 10 and range search at ε 0.3 and 1.0
# through the public API on a file-backed database, per query with the
# per-tier counts (the ε 1.0 shape on fewer queries: one costs ≈ 13 ms),
# and k-NN k 10 again on a database whose index holds a 2 000-add
# unmerged delta, as a server's does after its load, then one clean Open
# of a 20 000-walk database (the derive scan and the bulk load) on one and
# on two CPUs,
# and last the DP as the other callers run it, through a pooled Refiner:
# the public Distance / BandDistance, a Naive-Scan pass at ε 0.1 and at
# +Inf, and subsequence search; then the HTTP request decoder's scanner on
# one 1 000-sequence load batch and on one 128-element /knn body, the shape
# every query sends (bytes per second, ns per number in the body,
# allocations).
# To compare two commits, build the binaries on both and alternate them
# (internal/dtw/refiner_bench_test.go, internal/core/lbpaa_test.go,
# internal/seqdb/fetch_bench_test.go, banded_bench_test.go, bench_test.go,
# internal/server/decode_test.go).
kernels:
	$(GO) test -c -o bin/dtw.test ./internal/dtw
	./bin/dtw.test -test.run '^$$' -test.bench 'Refiner(Range|KNN)Shaped|^BenchmarkDecide$$' -test.cpu 1 -test.count 5
	$(GO) test -c -o bin/core.test ./internal/core
	./bin/core.test -test.run '^$$' -test.bench '^BenchmarkLBPAA$$' -test.cpu 1 -test.count 5
	$(GO) test -c -o bin/seqdb.test ./internal/seqdb
	cd internal/seqdb && ../../bin/seqdb.test -test.run '^$$' -test.bench 'HeapFetch' -test.cpu 1 -test.count 5
	$(GO) test -c -o bin/twsim.test .
	./bin/twsim.test -test.run '^$$' -test.bench 'BandedServed/^(knn_k10|range_eps0\.3|knn_k10_delta2000)$$' -test.benchtime 2000x -test.cpu 1 -test.count 5
	./bin/twsim.test -test.run '^$$' -test.bench 'BandedServed/^range_eps1\.0$$' -test.benchtime 200x -test.cpu 1 -test.count 5
	./bin/twsim.test -test.run '^$$' -test.bench '^BenchmarkOpen$$' -test.benchtime 10x -test.cpu 1,2 -test.count 5
	./bin/twsim.test -test.run '^$$' -test.bench '^Benchmark(DTW|AblationEarlyAbandon|SubseqSearch)$$' -test.cpu 1 -test.count 5
	$(GO) test -c -o bin/server.test ./internal/server
	./bin/server.test -test.run '^$$' -test.bench '^BenchmarkDecodeBody/(batch1000|query128)$$' -test.benchmem -test.cpu 1 -test.count 5

# One workload in alternated pairs of runs between HEAD and the working tree
# (cmd/pairs): each side exported into a temporary directory, then
# `go run ./cmd/bench -workload $(W) -seed 7 -seconds 12 -trace 0` in each,
# odd pairs HEAD first, and per end-to-end metric both medians, both
# interquartile ranges and the change's wins out of $(N). A pair of
# mixed_rw_wal runs takes about 40 s on a 2-core box.
W ?= mixed_rw_wal
N ?= 10
pairs:
	$(GO) run ./cmd/pairs -workload $(W) -n $(N)

# The query surface is two doors (SearchCtx, NearestKCtx) plus the
# paper-API wrappers. Fails if a deleted variant, option or alias
# reappears in the non-test Go of the root package, internal/shard,
# internal/server, cmd/ or examples/, so the cross-product cannot grow back
# one wrapper at a time (internal/core keeps its own NearestKShared*
# searcher methods and the NoCascade reference path) — and neither can the
# index engine knob (option, flag, resolver): a database serves from the
# flat index only — and neither can a lock wrapper around *DB (the server's
# lockedDB/readGuard, the shard engine's FanOutRead) or the public
# commit-split API: DB.mu is the one reader/writer lock of a database.
SURFACE_DELETED = SearchBand\b|SearchWorkers|SearchBandWorkers\b|NearestKBand|NearestKStats\b|NearestKStatsBand\b|NearestKShared\b|NearestKSharedWorkers|NearestKStatsWorkers|NearestKStatsBandWorkers\b|SearchBatchBand\b|DisableCascade|DisableEnvOrdering|NoEnvOrder|SplitStrategy|IndexEngine\b|FlatMergeThreshold|resolveEngine|index-engine|EngineGuttman|lockedDB|readGuard|AddCommit|AddAllCommit|RemoveCommit|FanOutRead
# The second pattern does the same one layer down: the flat slab's envelope
# fork, the index probe interfaces, the zero-prune refine tiers, the
# deferred k-NN loop and the engine switch (NewIndex/OpenIndex, the merge
# threshold option) stay out of the non-test Go of internal/core and
# internal/flatidx (PAA envelopes live in core.EnvStore only; FlatIndex and
# the R-tree baseline offer NearestWalkKeyed through core.Index, the read
# seam TWSimSearch walks, while a database writes its *core.FlatIndex
# directly) — and
# neither can a file behind the derived state: Open derives the index and
# the envelopes from the heap, so the envelope sidecar's reader and writer,
# the index file's delta section, the checkpoint's index save and the
# reconcile diff stay deleted.
CORE_DELETED = NearestWalkEnv|RangeQueryEntriesEnv|AppendRangeEnv|EnvBulkLoader|envTightIndex|knnEnvWalker|yiComplete|deferHeap|admitPoint|FlatMergeThreshold|NewIndex\b|OpenIndex\b|OpenEnvStore|CreateEnvStore|EnvStore\) Save\(|func Reconcile\(|deltaMagic|loadDelta|FlatIndex\) Flush\(
# The third does it for the heap's record reader: seqdb.Fetch (recordLocked)
# is the only way a record leaves the heap, so the decoded-sequence LRU, its
# stats type, flag and gauges stay deleted everywhere outside the benchmark
# (cmd/bench still sets the ignored SeqCacheBytes/CacheBytes fields and
# scrapes the two constant-0 counters), and the one-valued PoolPages knob
# stays a constant in the root package.
SEQCACHE_DELETED = \bseqCache\b|newSeqCache|seqdb\.CacheStats|type CacheStats|"seq-cache-mb"|twsim_seq_cache_(bytes|entries|hit_ratio)
# The fourth keeps LB_Improved's second pass out of the query path: the
# banded cascade is LB_PAA → LB_Keogh → DP, so the pass, its scratch, the
# sum-vs-max combiner and the tier's counter, JSON key and slow-log key stay
# deleted everywhere outside the benchmark. dtw.LBImproved itself stays (the
# bound-chain tests and cmd/bench call it), and so does the constant-0
# twsim_lb_improved_pruned_total series (the benchmark scrapes it): the
# JSON key is matched with its quotes so the series name does not match.
IMPROVED_DELETED = LBImprovedPass2|CombineImproved|ImprovedScratch|LBImprovedPruned|lbImprovedPruned|"lb_improved_pruned"|pruned_improved
# The fifth keeps the WAL committer self-clocked: it fsyncs as soon as a
# record wakes it, so the linger timer, its size cut-off, their defaults,
# the public option, its mapping and twsimd's flag stay deleted everywhere
# outside the benchmark. wal.Options{FlushInterval} remains an ignored
# shim (cmd/bench builds it).
LINGER_DELETED = WALFlushInterval|wal-flush-ms|DefaultFlushInterval|DefaultFlushBytes|FlushBytes|bigWake|walOptions
# The sixth keeps package dtw at one reference DP: the pooled per-base
# kernels and their row pool stay deleted everywhere outside the benchmark,
# and no non-test caller outside internal/dtw runs the reference (the
# Distance / DistanceWithin / BandDistance / BandDistanceWithin oracle) but
# the disabled cascade in internal/core/cascade.go and the benchmark's
# checker; every other caller refines through a pooled dtw.Refiner.
KERNELS_DELETED = PooledRowCap|rowPool|acquireRows|releaseRows|distKernel|withinKernel|distanceGeneric|withinGeneric
REFERENCE_CALL = dtw\.(Band)?Distance(Within)?\(
# The seventh keeps one way to open the index image a clean Close leaves
# for cmd/bench's replay: Load reads it whole and checks its CRC and
# structure before anything walks it (Open never reads it), so the mmap
# package, its environment switch, the header-only decode, the finalizer
# munmap fence and the mapping's stats, accessor and series stay deleted
# everywhere outside the benchmark.
MMAP_DELETED = mapfile|TWSIM_NO_MMAP|DecodeLite|releaseMapping|MmapBytes|OpenBytesRead|twsim_index_mmap_bytes|SetFinalizer
# The eighth keeps internal/rtree at one split, Guttman's quadratic: the
# linear and R* splits, the selector between them and R*'s overlap volume
# stay deleted everywhere outside the benchmark. The R-tree is the paper's
# baseline, so an import fence lets only core.FeatureIndex
# (internal/core/index.go, which cmd/experiments and the benchmark build)
# and FastMap's k-d tree (internal/core/fastmapsearch.go) import it: the
# serving path, subsequence search included, stays on the flat engine.
SPLIT_DELETED = SplitStrategy|QuadraticSplit|LinearSplit|RStarSplit|rstarSplit|linearSplit|intersectionArea
# The ninth keeps one request decoder: every handler in internal/server
# reads its body through decodeBody (read once under the cap, the scanner,
# then encoding/json over the same bytes), so no non-test Go there streams
# encoding/json from a request body.
BODY_DECODER = json\.NewDecoder\(r\.Body\)
# The tenth keeps the root write path one path under one rule: every check
# that can refuse a write runs before the first mutation, the heap publishes
# a batch whole or not at all, and the index and envelope updates after it
# cannot fail. So the bulk/incremental fork (applyAddAll) and the closure
# that rolled back a half-applied batch stay out of the root package's
# non-test Go.
WRITE_PATH_DELETED = applyAddAll|rollback := func
# The eleventh keeps the pruning cascade on the paper's L∞: an additive base
# (L1, L2Sq) runs the reference DP with no tier, so the Refiner's additive
# window, the cascade's global envelope, LB_PAA's additive interval-gap form
# and the index walks' key transform stay out of the non-test Go of
# internal/core, internal/dtw, internal/flatidx and internal/rtree.
ADDITIVE_DELETED = windowAdd|globalEnv|ensureGlobalRange|paaWindow|intervalGap|identityKey|xform
# The twelfth keeps one replication format: a snapshot is a header and WAL
# frames that the replica reads with ParseWALRecords and applies with the
# walker Open's replay runs, so the TWRS codec (its magic, record and
# snapshot types, reader and differ), the X-Twsim-Seq trailer and the tail
# size knob nobody set (ReplicaOptions.MaxBatchBytes, /repl/wal's max_bytes)
# stay out of the non-test Go of the root package, internal/server and cmd/.
REPL_DELETED = \b(ReplRecord|ReplSnapshot|SyncFromReplSnapshot|ReadReplSnapshot|snapMagic|MaxBatchBytes)\b|max_bytes|X-Twsim-Seq
# The thirteenth keeps one query on one goroutine: a query refines its
# candidates in the loop of the paper's TW-Sim-Search on the goroutine that
# serves it, so the intra-query refine pool, the parallel k-NN verify, the
# worker budget split across shards, the per-call worker-count doors, the
# server's -refine-workers flag and the decider's reference count stay out
# of the non-test Go of the root package, internal/core, internal/dtw,
# internal/shard and cmd/twsimd.
WORKERS_DELETED = refineParallel|nearestKParallel|workerCascades|perShardWorkers|SearchBandWorkersCtx|NearestKStatsBandWorkersCtx|"refine-workers"|Decider\) Share
# The fourteenth keeps two query doors: the paper's TW-Sim-Search answers
# one query at a time, so the batch door (DB/ShardedDB.SearchBatch*, the
# Backend method), its dispatcher pool (core.RunBatch), its upfront check
# and its per-result stamping stay out of the non-test Go of the root
# package, internal/core, internal/shard, internal/server, cmd/ and
# examples/. A caller with many queries runs them from its own goroutines.
BATCH_DELETED = SearchBatch|RunBatch|validateBatch|stampBatch
# The fifteenth keeps one index under the database: a *DB holds a
# *core.FlatIndex and writes through it directly, and its answers are held
# to a brute-force model (model_test.go), so the R-tree-wired twin database
# (OpenMemBaseline, its baselineIndex adapter), the root writeIndex seam and
# the R-tree's engine name stay out of all Go, tests included, of the root
# package, internal/, cmd/ and examples/ outside the benchmark.
TWIN_DELETED = OpenMemBaseline|baselineIndex|writeIndex|EngineGuttman
# The sixteenth keeps a database on the paper's L∞ (§4.1): the per-database
# base option (Options.Base, its field in DB and ShardedDB, their Base()
# accessors) stays out of the non-test Go of the root package,
# internal/shard, internal/server, cmd/ and examples/. The public distance
# helpers (Distance, WarpingPath, BaseL1, BaseL2Sq …) keep all three bases,
# and so do core.TWSimSearch and the baselines, which cmd/experiments runs
# under L1.
BASE_DELETED = \b(db|s)\.base\b|\bopts\.Base\b|\) Base\(\) Base\b|Options\{[^}]*\bBase:|^\s+Base\s+Base\b
surface:
	@out=$$(grep -nE '$(SURFACE_DELETED)' *.go $$(find internal/shard internal/server cmd examples -name '*.go') | grep -v '_test\.go:'); \
	if [ -n "$$out" ]; then \
		echo "deleted query-surface identifiers are back:"; echo "$$out"; exit 1; \
	fi
	@out=$$(grep -nE '$(CORE_DELETED)' $$(find internal/core internal/flatidx -name '*.go' ! -name '*_test.go')); \
	if [ -n "$$out" ]; then \
		echo "deleted core/flatidx identifiers are back:"; echo "$$out"; exit 1; \
	fi
	@out=$$( { grep -nE '$(SEQCACHE_DELETED)' *.go $$(find internal cmd examples -name '*.go' ! -path 'cmd/bench/*' ! -path 'internal/benchkit/*'); grep -nE 'PoolPages' *.go; } | grep -v '_test\.go:'); \
	if [ -n "$$out" ]; then \
		echo "the decoded-sequence cache or a one-valued knob is back:"; echo "$$out"; exit 1; \
	fi
	@out=$$(grep -nE '$(IMPROVED_DELETED)' *.go $$(find internal cmd examples -name '*.go' ! -path 'cmd/bench/*' ! -path 'internal/benchkit/*') | grep -v '_test\.go:'); \
	if [ -n "$$out" ]; then \
		echo "LB_Improved's deleted second-pass tier is back:"; echo "$$out"; exit 1; \
	fi
	@out=$$(grep -nE '$(LINGER_DELETED)' *.go $$(find internal cmd examples -name '*.go' ! -path 'cmd/bench/*' ! -path 'internal/benchkit/*') | grep -v '_test\.go:'); \
	if [ -n "$$out" ]; then \
		echo "the WAL committer's deleted linger is back:"; echo "$$out"; exit 1; \
	fi
	@out=$$(grep -nE '$(KERNELS_DELETED)' *.go $$(find internal cmd examples -name '*.go' ! -path 'cmd/bench/*' ! -path 'internal/benchkit/*') | grep -v '_test\.go:'); \
	if [ -n "$$out" ]; then \
		echo "the deleted pooled DP kernels are back:"; echo "$$out"; exit 1; \
	fi
	@out=$$(grep -nE '$(REFERENCE_CALL)' *.go $$(find internal cmd examples -name '*.go' ! -path 'internal/dtw/*' ! -path 'internal/core/cascade.go' ! -path 'cmd/bench/*' ! -path 'internal/benchkit/*') | grep -v '_test\.go:'); \
	if [ -n "$$out" ]; then \
		echo "a non-test caller runs the reference DP instead of a dtw.Refiner:"; echo "$$out"; exit 1; \
	fi
	@out=$$(grep -nE '$(MMAP_DELETED)' *.go $$(find internal cmd examples -name '*.go' ! -path 'cmd/bench/*' ! -path 'internal/benchkit/*') | grep -v '_test\.go:'); \
	if [ -n "$$out" ]; then \
		echo "the index file's deleted mmap open path is back:"; echo "$$out"; exit 1; \
	fi
	@out=$$(grep -nE '$(SPLIT_DELETED)' *.go $$(find internal cmd examples -name '*.go' ! -path 'cmd/bench/*' ! -path 'internal/benchkit/*') | grep -v '_test\.go:'); \
	if [ -n "$$out" ]; then \
		echo "the R-tree's deleted split strategies are back:"; echo "$$out"; exit 1; \
	fi
	@out=$$(grep -l '"repro/internal/rtree"' *.go $$(find internal cmd examples -name '*.go' ! -path 'internal/rtree/*' ! -path 'internal/core/index.go' ! -path 'internal/core/fastmapsearch.go' ! -path 'cmd/bench/*' ! -path 'internal/benchkit/*') | grep -v '_test\.go$$'); \
	if [ -n "$$out" ]; then \
		echo "only the paper's baselines may import internal/rtree:"; echo "$$out"; exit 1; \
	fi
	@out=$$(grep -nE '$(BODY_DECODER)' $$(find internal/server -name '*.go' ! -name '*_test.go')); \
	if [ -n "$$out" ]; then \
		echo "a handler decodes its request body outside decodeBody:"; echo "$$out"; exit 1; \
	fi
	@out=$$(grep -nE '$(WRITE_PATH_DELETED)' *.go | grep -v '_test\.go:'); \
	if [ -n "$$out" ]; then \
		echo "the root write path's deleted rollback machinery is back:"; echo "$$out"; exit 1; \
	fi
	@out=$$(grep -nE '$(ADDITIVE_DELETED)' $$(find internal/core internal/dtw internal/flatidx internal/rtree -name '*.go' ! -name '*_test.go')); \
	if [ -n "$$out" ]; then \
		echo "the deleted additive pruning machinery is back:"; echo "$$out"; exit 1; \
	fi
	@out=$$(grep -nE '$(REPL_DELETED)' $$(find . internal/server -maxdepth 1 -name '*.go' ! -name '*_test.go') $$(find cmd -name '*.go' ! -name '*_test.go' ! -path 'cmd/bench/*')); \
	if [ -n "$$out" ]; then \
		echo "the deleted TWRS snapshot codec or a replica knob is back:"; echo "$$out"; exit 1; \
	fi
	@out=$$(grep -nE '$(WORKERS_DELETED)' $$(find . -maxdepth 1 -name '*.go' ! -name '*_test.go') $$(find internal/core internal/dtw internal/shard cmd/twsimd -name '*.go' ! -name '*_test.go')); \
	if [ -n "$$out" ]; then \
		echo "the deleted intra-query refine workers are back:"; echo "$$out"; exit 1; \
	fi
	@out=$$(grep -nE '$(BATCH_DELETED)' $$(find . -maxdepth 1 -name '*.go' ! -name '*_test.go') $$(find internal/core internal/shard internal/server cmd examples -name '*.go' ! -name '*_test.go')); \
	if [ -n "$$out" ]; then \
		echo "the deleted batch query door is back:"; echo "$$out"; exit 1; \
	fi
	@out=$$(grep -nE '$(TWIN_DELETED)' *.go $$(find internal cmd examples -name '*.go' ! -path 'cmd/bench/*' ! -path 'internal/benchkit/*')); \
	if [ -n "$$out" ]; then \
		echo "the deleted R-tree twin or the write-index seam is back:"; echo "$$out"; exit 1; \
	fi
	@out=$$(grep -nE '$(BASE_DELETED)' *.go $$(find internal/shard internal/server cmd examples -name '*.go') | grep -v '_test\.go:'); \
	if [ -n "$$out" ]; then \
		echo "the deleted per-database base option is back:"; echo "$$out"; exit 1; \
	fi

# Non-test Go lines outside the benchmark (cmd/bench, internal/benchkit):
# the number ROADMAP.md and CHANGES.md quote when a PR claims to be smaller.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './cmd/bench/*' ! -path './internal/benchkit/*' ! -path './.bench_build/*' | xargs cat | wc -l

# The WAL crash-simulation suite on its own: torn final record, CRC-corrupt
# middle record, duplicate replay after a mid-checkpoint crash, plus the
# injected directory-fsync failure — each recovered database compared
# record-for-record and query-for-query against a never-crashed twin. Then
# the write path's atomicity: adds and batches under injected heap faults
# (a failed write leaves the heap, the index and the envelopes as they
# were), a write the log refused taken back whole, and the heap's batch
# append on its own.
crash-tests:
	$(GO) test -run 'TestCrash|TestDirSync|TestAddAtomicUnderHeapFaults|TestAddAllAllOrNothing|TestAddRollbackReusesIDAndSpace|TestUndoAppendsAfterFailedWALAppend' .
	$(GO) test -run 'TestAppendAllAtomicUnderFaults' ./internal/seqdb
