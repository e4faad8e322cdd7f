// Command twsimd serves a twsim sequence database over HTTP (see
// internal/server for the API).
//
// Usage:
//
//	twsimd -db /var/lib/twsim -addr :7474            # open existing database
//	twsimd -db /var/lib/twsim -create -addr :7474    # create a fresh one
//	twsimd -mem -addr :7474                          # ephemeral in-memory db
//	twsimd -db /var/lib/twsim -create -shards 8      # create hash-partitioned
//	twsimd -mem -shards 4                            # in-memory, 4 shards
//
// -shards N creates a sharded database: N independent partitions searched
// in parallel, with writers serialized per shard instead of globally. The
// shard count is fixed at creation and recorded in the database directory;
// when opening an existing database the flag may be omitted (the layout is
// auto-detected) but must match if given. A rule of thumb for choosing N:
// the number of cores you want one query's DTW verification to use (see
// the README's sharding section).
//
// -refine-workers B is the total intra-query refinement budget per search
// (candidate fetch + cascade + exact DTW run on up to B goroutines; on a
// sharded database the budget is split across the shards a search fans out
// to). 0, the default, means GOMAXPROCS; 1 forces the serial path. Results
// are bit-identical at every setting.
//
// The feature index is the flat engine: an immutable packed snapshot plus a
// mutable delta overlay with background merges, persisted as feature.flat
// (see README). A directory that still holds an older version's
// feature.rtree is converted on first open: the index is derived data, so
// it is rebuilt from the heap, the R-tree file is removed, and the startup
// log says "index converted from guttman to flat". Snapshot generation,
// delta size, and merge latency are exported on GET /metrics
// (twsim_index_snapshot_generation, twsim_index_delta_entries,
// twsim_index_merges_total, twsim_index_merge_seconds) and under
// "index_engine" in GET /stats.
//
// -band R sets the default Sakoe–Chiba band half-width every query answers
// under (0, the default, is the paper's unconstrained distance). Individual
// /search and /knn requests may override it with a "band" field; negative
// values are rejected with 400.
//
// Every read of a stored sequence — a query's candidates, GET
// /sequences/{id} — is one positional read of the data file into scratch;
// there is no sequence cache. The data pool's counters are reported under
// "storage" in GET /stats and as twsim_pool_* on GET /metrics.
//
// Serving under load:
//
//   - -result-cache-mb M enables the whole-query result cache (default 0 =
//     off): a repeated /search or /knn answers from memory with zero
//     index/heap/DTW work. Any write invalidates affected entries via the
//     database's write generation, so a hit is always bit-identical to
//     recomputing. Counters: twsim_result_cache_* on /metrics,
//     "result_cache" on /stats; hits carry "cache_hit": true.
//   - -deadline-ms T bounds each query's execution (0 = none); a query past
//     the deadline is abandoned at its next candidate boundary and answers
//     503. A client that disconnects mid-query likewise has its query
//     abandoned (logged as 499).
//   - -max-inflight N caps the queries executing at once (0 = unlimited);
//     up to -queue-depth more wait for a slot, and anything beyond that is
//     shed immediately with 429 + Retry-After (seconds set by
//     -retry-after-s). Outcome counters:
//     twsim_queries_{shed,cancelled,deadline_exceeded}_total.
//
// Durability and replication:
//
//   - -wal runs a group-commit write-ahead log: a write is acknowledged
//     only after the fsync covering its log record, so acknowledged writes
//     survive a crash (the log is replayed on the next open). Concurrent
//     writers share fsyncs — -wal-flush-ms bounds how long a write waits
//     for its batch (default 2ms) — and -wal-checkpoint-mb bounds replay
//     length by checkpointing when the log outgrows the limit. Counters:
//     twsim_wal_* on /metrics, "wal" on /stats. Sharded databases run one
//     log per shard.
//   - -replica-of URL runs this process as a read-only replica of the
//     single-database WAL-enabled primary at URL: it bootstraps from
//     GET /repl/snapshot, then streams the WAL tail (GET /repl/wal) every
//     -replica-poll-ms and applies it locally, answering queries
//     bit-identically to the primary at the same sequence number. Writes
//     answer 403. Lag is exported as twsim_replica_lag_seconds /
//     twsim_replica_generation_delta on /metrics and "replica" on /stats.
//     The replica keeps no disk state; every start re-syncs.
//
// Observability:
//
//   - GET /metrics serves the Prometheus text exposition (per-endpoint
//     request counters and latency histograms, query/cascade counters,
//     pool and cache counters).
//   - -slow-query-ms T logs every query whose wall time reaches T
//     milliseconds as one flat key=value line carrying the request_id the
//     response also returns (0, the default, disables the log).
//   - -pprof-addr starts net/http/pprof on a separate listener (empty, the
//     default, keeps profiling off). The profiling listener shares nothing
//     with the API listener, so it can be bound to localhost only.
//
// The API http.Server runs with read/write/idle timeouts and a header
// budget (flag-overridable via -read-timeout, -write-timeout,
// -idle-timeout, -max-header-bytes) so slow or stalled clients cannot pin
// connections indefinitely.
//
// Shut down with SIGINT/SIGTERM; the database is flushed on exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	twsim "repro"
	"repro/internal/server"
)

func main() {
	var (
		dbDir   = flag.String("db", "", "database directory")
		addr    = flag.String("addr", ":7474", "listen address")
		create  = flag.Bool("create", false, "create the database if it does not exist")
		mem     = flag.Bool("mem", false, "serve an ephemeral in-memory database")
		shards  = flag.Int("shards", 0, "shard count for -create/-mem (0 = unsharded); on open, must match the existing layout")
		verify  = flag.Bool("verify", false, "run a full heap/index integrity check before serving")
		workers = flag.Int("refine-workers", 0, "intra-query refinement worker budget per search (0 = GOMAXPROCS, 1 = serial)")
		band    = flag.Int("band", 0, "default Sakoe-Chiba band half-width queries answer under (0 = unconstrained; requests may override per query)")

		resultCacheMB = flag.Int("result-cache-mb", 0, "whole-query result cache size in MiB (0 = disabled); repeated queries answer from memory with zero index/DTW work, invalidated by any write")
		deadlineMS    = flag.Int("deadline-ms", 0, "per-query execution deadline in milliseconds (0 = none); a query past it is abandoned and answers 503")
		maxInflight   = flag.Int("max-inflight", 0, "max concurrently executing queries (0 = unlimited); excess queries queue then shed with 429")
		queueDepth    = flag.Int("queue-depth", 64, "queries allowed to wait for an execution slot when -max-inflight is set; arrivals beyond it shed immediately")
		retryAfterS   = flag.Int("retry-after-s", 0, "Retry-After seconds advertised on shed (429) responses (0 = 1s)")

		walOn           = flag.Bool("wal", false, "run a group-commit write-ahead log: acknowledged writes survive a crash (on-disk databases; per shard when sharded)")
		walFlushMS      = flag.Int("wal-flush-ms", 2, "WAL group-commit flush interval in milliseconds (writes wait at most this plus one fsync; 0 = fsync every batch immediately)")
		walCheckpointMB = flag.Int("wal-checkpoint-mb", 64, "checkpoint (full flush + log truncation) when the WAL file reaches this many MiB (0 = never on size)")

		replicaOf     = flag.String("replica-of", "", "run as a read-only replica of the primary twsimd at this base URL (e.g. http://primary:7474): bootstrap from its snapshot, stream its WAL tail, answer queries locally and writes with 403")
		replicaPollMS = flag.Int("replica-poll-ms", 500, "replica WAL tail polling interval in milliseconds")

		slowMS    = flag.Int("slow-query-ms", 0, "log queries at or above this wall time in milliseconds (0 = disabled)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")

		readTimeout    = flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout (whole request, headers+body)")
		writeTimeout   = flag.Duration("write-timeout", 60*time.Second, "http.Server WriteTimeout (response deadline)")
		idleTimeout    = flag.Duration("idle-timeout", 120*time.Second, "http.Server IdleTimeout (keep-alive connections)")
		maxHeaderBytes = flag.Int("max-header-bytes", 1<<20, "http.Server MaxHeaderBytes")
	)
	flag.Parse()

	if *band < 0 {
		fmt.Fprintf(os.Stderr, "twsimd: negative band half-width %d\n", *band)
		os.Exit(2)
	}
	opts := twsim.Options{
		RefineWorkers:      *workers,
		Band:               *band,
		ResultCacheBytes:   int64(*resultCacheMB) << 20,
		QueryDeadline:      time.Duration(*deadlineMS) * time.Millisecond,
		SlowQueryThreshold: time.Duration(*slowMS) * time.Millisecond,
		WAL:                *walOn,
	}
	if *walOn {
		if *mem || *replicaOf != "" {
			fmt.Fprintln(os.Stderr, "twsimd: -wal requires an on-disk database (not -mem / -replica-of)")
			os.Exit(2)
		}
		opts.WALFlushInterval = time.Duration(*walFlushMS) * time.Millisecond
		if *walFlushMS == 0 {
			opts.WALFlushInterval = -1 // fsync every batch immediately
		}
		opts.WALCheckpointBytes = int64(*walCheckpointMB) << 20
		if *walCheckpointMB == 0 {
			opts.WALCheckpointBytes = -1
		}
	}
	if *replicaOf != "" && (*shards > 0 || *create) {
		fmt.Fprintln(os.Stderr, "twsimd: -replica-of serves an in-memory single-database replica (no -shards/-create)")
		os.Exit(2)
	}
	var db twsim.Backend
	var single *twsim.DB // non-nil when serving an unsharded database
	var err error
	sharded := twsim.ShardedOptions{Options: opts, Shards: *shards}
	switch {
	case *replicaOf != "":
		// A replica is an in-memory mirror rebuilt from the primary's
		// snapshot + WAL stream on every start; it persists nothing.
		single, err = twsim.OpenMem(opts)
	case *mem && *shards > 0:
		db, err = twsim.OpenMemSharded(sharded)
	case *mem:
		single, err = twsim.OpenMem(opts)
	case *dbDir == "":
		fmt.Fprintln(os.Stderr, "twsimd: provide -db <dir> or -mem")
		os.Exit(2)
	case *create && *shards > 0:
		db, err = twsim.CreateSharded(*dbDir, sharded)
	case *create:
		single, err = twsim.Create(*dbDir, opts)
	case *shards > 0 || twsim.IsSharded(*dbDir):
		db, err = twsim.OpenSharded(*dbDir, sharded)
	default:
		single, err = twsim.Open(*dbDir, opts)
	}
	if single != nil {
		db = single
	}
	if err != nil {
		log.Fatalf("twsimd: opening database: %v", err)
	}
	if rs := db.LastRepair(); rs.Repaired() {
		log.Printf("twsimd: database recovered on open: %s", rs.String())
	}
	// One line per open-time note: snapshot rebuild-on-open, heap/index
	// reconciliation, envelope-sidecar rebuilds.
	for _, note := range db.OpenDiagnostics() {
		log.Printf("twsimd: open: %s", note)
	}
	if *verify {
		if err := db.Verify(); err != nil {
			log.Fatalf("twsimd: integrity check failed: %v", err)
		}
		log.Printf("twsimd: integrity check passed (%d sequences)", db.Len())
	}

	srv := server.NewBackendLimits(db, server.Limits{
		MaxInflight:       *maxInflight,
		QueueDepth:        *queueDepth,
		RetryAfterSeconds: *retryAfterS,
	})
	var replica *server.Replica
	if *replicaOf != "" {
		replica, err = server.NewReplica(srv, *replicaOf, server.ReplicaOptions{
			PollInterval: time.Duration(*replicaPollMS) * time.Millisecond,
		})
		if err != nil {
			log.Fatalf("twsimd: %v", err)
		}
		replica.Start()
		lag := replica.Lag()
		log.Printf("twsimd: replica of %s bootstrapped at seq %d (%d sequences), read-only", *replicaOf, lag.AppliedSeq, db.Len())
	}
	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    *maxHeaderBytes,
	}

	// Listen before serving so the actual bound address can be logged —
	// with -addr 127.0.0.1:0 (tests, the CI smoke) the kernel picks the
	// port and the "listening on" line is how callers learn it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("twsimd: listen %s: %v", *addr, err)
	}

	// pprof lives on its own listener and mux: profiling endpoints never
	// share a port (or an exposure decision) with the API, and the default
	// off means zero new surface unless explicitly requested.
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("twsimd: pprof listen %s: %v", *pprofAddr, err)
		}
		log.Printf("twsimd: pprof listening on %s", pln.Addr())
		go func() {
			if err := pprofSrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("twsimd: pprof server: %v", err)
			}
		}()
	}

	done := make(chan os.Signal, 1)
	signal.Notify(done, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-done
		log.Println("twsimd: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if pprofSrv != nil {
			if err := pprofSrv.Shutdown(ctx); err != nil {
				log.Printf("twsimd: pprof shutdown: %v", err)
			}
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("twsimd: shutdown: %v", err)
		}
	}()

	if sdb, ok := db.(*twsim.ShardedDB); ok {
		log.Printf("twsimd: serving %d sequences across %d shards, listening on %s", db.Len(), sdb.NumShards(), ln.Addr())
	} else {
		log.Printf("twsimd: serving %d sequences, listening on %s", db.Len(), ln.Addr())
	}
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("twsimd: %v", err)
	}
	if replica != nil {
		replica.Stop()
	}
	if err := srv.Close(); err != nil {
		log.Printf("twsimd: closing server state: %v", err)
	}
	if err := db.Close(); err != nil {
		log.Fatalf("twsimd: closing database: %v", err)
	}
	log.Println("twsimd: database closed cleanly")
}
