GO ?= go

.PHONY: ci fmt vet surface loc build test race test-no-mmap fuzz-smoke metrics-smoke bench-smoke crash-tests kernels

# Full gate: formatting, static checks (vet plus the query-surface check),
# build, the whole test suite (including the fault-injection recovery tests)
# under the race detector, the index suites re-run with mmap disabled (the
# eager-read fallback must behave identically), a short fuzz pass over the
# envelope/lower-bound oracles and the snapshot-file readers, the
# observability smoke (boots twsimd, scrapes /metrics, validates the
# exposition), the WAL crash-simulation suite (torn tail, corrupt middle
# record, duplicate replay — each recovered state compared record-for-record
# against a never-crashed database), and the benchmark's smoke run.
ci: fmt vet surface build race test-no-mmap fuzz-smoke metrics-smoke crash-tests bench-smoke

# The index packages once more with TWSIM_NO_MMAP=1: every snapshot open —
# slab and delta section — goes through the eager read-and-checksum fallback
# instead of the mmap path, so both Load flavors stay green on every CI run.
test-no-mmap:
	TWSIM_NO_MMAP=1 $(GO) test ./internal/flatidx ./internal/core .

# Short coverage-guided fuzz passes over the ordering oracles: the block
# sliding min/max envelope vs the quadratic reference, the lower-bound chain
# LB_Keogh <= LB_Improved <= BandDistance with BandDistance >= Distance,
# the refine tier's windowed kernel vs the dense DP and its banded pass vs
# the reference banded loop (verdict and bits),
# the flat-slab and snapshot-file codec (slab, delta section), and the
# snapshot loader on both open paths (hostile files, a delta section that
# contradicts its slab included, must error out or load into an index that
# walks without faulting), the heap's scratch fetch vs Get over scripted
# appends, rollbacks, deletes, flushes and reopens at every page size, and
# the heap directory loader (whatever dir.bin opens must read without a
# panic).
# Go permits one fuzz target per -fuzz run, so each gets its own pass.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz='^FuzzEnvelopeDeque$$' -fuzztime=5s ./internal/dtw
	$(GO) test -run=^$$ -fuzz='^FuzzBandedBoundChain$$' -fuzztime=5s ./internal/dtw
	$(GO) test -run=^$$ -fuzz='^FuzzRefinerMatchesDistance$$' -fuzztime=5s ./internal/dtw
	$(GO) test -run=^$$ -fuzz='^FuzzRefinerBandMatchesReference$$' -fuzztime=5s ./internal/dtw
	$(GO) test -run=^$$ -fuzz='^FuzzSlabRoundtrip$$' -fuzztime=5s ./internal/flatidx
	$(GO) test -run=^$$ -fuzz='^FuzzMmapLoad$$' -fuzztime=5s ./internal/flatidx
	$(GO) test -run=^$$ -fuzz='^FuzzFetchMatchesGet$$' -fuzztime=5s ./internal/seqdb
	$(GO) test -run=^$$ -fuzz='^FuzzLoadDirectory$$' -fuzztime=5s ./internal/seqdb

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
# refines, and the calls knn_banded's DP tier and LB_Improved's second pass
# see — from one test binary on one CPU, five times each, then the candidate
# fetch both workloads make per candidate (Get beside the scratch fetch, on a
# file-backed heap of the benchmark's shape). To compare two commits, build
# the binaries on both and alternate them (internal/dtw/refiner_bench_test.go,
# internal/seqdb/fetch_bench_test.go).
kernels:
	$(GO) test -c -o bin/dtw.test ./internal/dtw
	./bin/dtw.test -test.run '^$$' -test.bench 'Refiner(Range|KNN)Shaped' -test.cpu 1 -test.count 5
	$(GO) test -c -o bin/seqdb.test ./internal/seqdb
	cd internal/seqdb && ../../bin/seqdb.test -test.run '^$$' -test.bench 'HeapFetch' -test.cpu 1 -test.count 5

# The query surface is three doors (SearchCtx, NearestKCtx, SearchBatchCtx)
# plus the paper-API wrappers. Fails if a deleted variant, option or alias
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
# the R-tree baseline offer NearestWalkKeyed through core.Index).
CORE_DELETED = NearestWalkEnv|RangeQueryEntriesEnv|AppendRangeEnv|EnvBulkLoader|envTightIndex|knnEnvWalker|yiComplete|deferHeap|admitPoint|FlatMergeThreshold|NewIndex\b|OpenIndex\b
# The third does it for the heap's record reader: seqdb.Fetch (recordLocked)
# is the only way a record leaves the heap, so the decoded-sequence LRU, its
# stats type, flag and gauges stay deleted everywhere outside the benchmark
# (cmd/bench still sets the ignored SeqCacheBytes/CacheBytes fields and
# scrapes the two constant-0 counters), and the two one-valued knobs
# (PoolPages in the root package, WALFlushBytes anywhere) stay constants.
SEQCACHE_DELETED = \bseqCache\b|newSeqCache|seqdb\.CacheStats|type CacheStats|"seq-cache-mb"|WALFlushBytes|twsim_seq_cache_(bytes|entries|hit_ratio)
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

# Non-test Go lines outside the benchmark (cmd/bench, internal/benchkit):
# the number ROADMAP.md and CHANGES.md quote when a PR claims to be smaller.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './cmd/bench/*' ! -path './internal/benchkit/*' ! -path './.bench_build/*' | xargs cat | wc -l

# The WAL crash-simulation suite on its own: torn final record, CRC-corrupt
# middle record, duplicate replay after a mid-checkpoint crash, plus the
# injected directory-fsync failure — each recovered database compared
# record-for-record and query-for-query against a never-crashed twin.
crash-tests:
	$(GO) test -run 'TestCrash|TestDirSync' .
