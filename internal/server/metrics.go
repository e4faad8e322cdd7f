package server

import (
	"net/http"
	"sync/atomic"
	"time"

	twsim "repro"
	"repro/internal/core"
	"repro/internal/obs"
)

// endpointNames is the fixed set of instrumented endpoints; per-endpoint
// instruments are registered once at construction so the request path only
// touches pre-wired atomics.
var endpointNames = []string{
	"healthz", "stats", "metrics",
	"sequences", "sequence_by_id", "batch",
	"search", "knn",
	"subseq_build", "subseq_search",
	"repl_status", "repl_snapshot", "repl_wal",
}

// endpointMetrics are one endpoint's pre-registered instruments: request
// counters split by status class and one latency histogram.
type endpointMetrics struct {
	ok, clientErr, serverErr *obs.Counter
	latency                  *obs.Histogram
}

// serverMetrics is the server's obs registry plus the instruments the
// request path writes into. Everything else — query totals, buffer pool and
// cache counters, database size — is exported through scrape-time collector
// functions reading the counters the subsystems already keep, so serving
// traffic pays no second accounting path.
type serverMetrics struct {
	reg       *obs.Registry
	endpoints map[string]*endpointMetrics
	filter    *obs.Histogram // per-query filter-phase latency (/search)
	refine    *obs.Histogram // per-query refine-phase latency (/search and /knn)
}

func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{reg: reg, endpoints: make(map[string]*endpointMetrics, len(endpointNames))}

	for _, ep := range endpointNames {
		label := `endpoint="` + ep + `"`
		m.endpoints[ep] = &endpointMetrics{
			ok:        reg.Counter("twsim_http_requests_total", label+`,code="2xx"`, "HTTP requests served, by endpoint and status class."),
			clientErr: reg.Counter("twsim_http_requests_total", label+`,code="4xx"`, ""),
			serverErr: reg.Counter("twsim_http_requests_total", label+`,code="5xx"`, ""),
			latency:   reg.Histogram("twsim_http_request_duration_seconds", label, "HTTP request latency, by endpoint."),
		}
	}

	m.filter = reg.Histogram("twsim_query_filter_seconds", "", "Filter-phase latency (feature extraction + index range query) per /search.")
	m.refine = reg.Histogram("twsim_query_refine_seconds", "", "Refine-phase latency (candidate fetch + cascade + exact DTW) per /search and /knn.")

	// Query-work totals: scrape-time reads of the same atomics /stats
	// reports, so the conservation law
	// candidates = lb_paa + lb_keogh + lb_improved + corridor + dtw_calls
	// holds between the exported series exactly as it does per query.
	counterOf := func(v *atomic.Int64) func() float64 { return func() float64 { return float64(v.Load()) } }
	reg.CounterFunc("twsim_queries_total", "", "Similarity queries served (/search and /knn).", counterOf(&s.totals.searches))
	reg.CounterFunc("twsim_query_candidates_total", "", "Index candidates produced across all queries.", counterOf(&s.totals.candidates))
	reg.CounterFunc("twsim_query_results_total", "", "Query results returned across all queries.", counterOf(&s.totals.results))
	reg.CounterFunc("twsim_dtw_calls_total", "", "Exact DTW evaluations during refinement.", counterOf(&s.totals.dtwCalls))
	reg.CounterFunc("twsim_dtw_abandoned_total", "", "Dense DTW evaluations that early-abandoned (subset of dtw_calls).", counterOf(&s.totals.dtwAbandoned))
	reg.CounterFunc("twsim_lb_paa_pruned_total", "", "Candidates dismissed by LB_PAA on the stored segment envelope, before the sequence fetch.", counterOf(&s.totals.lbPAAPruned))
	reg.CounterFunc("twsim_lb_keogh_pruned_total", "", "Candidates dismissed by LB_Keogh on the banded envelope (banded queries only).", counterOf(&s.totals.lbKeoghPruned))
	reg.CounterFunc("twsim_lb_improved_pruned_total", "", "Candidates dismissed by Lemire's LB_Improved second pass (banded queries only).", counterOf(&s.totals.lbImprovedPruned))
	reg.CounterFunc("twsim_corridor_pruned_total", "", "Candidates dismissed inside the exact DP (the corridor died before the final cell).", counterOf(&s.totals.corridorPruned))
	// The cascade no longer runs these two tiers (the index walk applies
	// LB_Kim, which dominates LB_Yi under L∞); the series stay registered at
	// a constant 0 because cmd/bench/ledger.go and benchkit.ConservationGap
	// fail a run on a missing series; likewise the two counters of the
	// deleted decoded-sequence cache. They go with ROADMAP item 5(c).
	zero := func() float64 { return 0 }
	reg.CounterFunc("twsim_lb_kim_pruned_total", "", "Always 0: the cascade has no LB_Kim tier (the index walk applies the bound).", zero)
	reg.CounterFunc("twsim_lb_yi_pruned_total", "", "Always 0: the cascade has no LB_Yi tier.", zero)
	reg.CounterFunc("twsim_seq_cache_hits_total", "", "Always 0: there is no decoded-sequence cache.", zero)
	reg.CounterFunc("twsim_seq_cache_misses_total", "", "Always 0: there is no decoded-sequence cache.", zero)
	reg.CounterFunc("twsim_knn_frontier_repushes_total", "", "k-NN candidates re-entering the walk frontier with an envelope-sharpened priority.", counterOf(&s.totals.knnRepushes))
	reg.CounterFunc("twsim_knn_envelope_cutoffs_total", "", "k-NN walks stopped on an envelope-raised key (the ordering tier ended the walk early).", counterOf(&s.totals.knnEnvCutoffs))

	// Database size gauges.
	reg.GaugeFunc("twsim_sequences", "", "Live sequences stored.", func() float64 { return float64(s.backend.Len()) })
	reg.GaugeFunc("twsim_data_bytes", "", "Logical bytes of stored sequence data.", func() float64 { return float64(s.backend.DataBytes()) })
	reg.GaugeFunc("twsim_index_pages", "", "Feature index size in pages.", func() float64 { return float64(s.backend.IndexPages()) })

	// Index snapshot/delta instrumentation: every collector snapshots
	// IndexEngineStats at scrape time; with shards the counters sum
	// (generation/delta entries across shards, merge observations pooled).
	engine := func(sel func(core.IndexEngineStats) float64) func() float64 {
		return func() float64 { return sel(s.backend.IndexEngineStats()) }
	}
	reg.GaugeFunc("twsim_index_snapshot_generation", "", "Index snapshot generation (sum over shards).",
		engine(func(st core.IndexEngineStats) float64 { return float64(st.Generation) }))
	reg.GaugeFunc("twsim_index_delta_entries", "", "Index delta-overlay entries not yet merged into the packed snapshot (adds + tombstones, summed over shards).",
		engine(func(st core.IndexEngineStats) float64 { return float64(st.DeltaEntries) }))
	reg.CounterFunc("twsim_index_merges_total", "", "Index snapshot rebuilds (delta merged into a new packed slab and atomically swapped in).",
		engine(func(st core.IndexEngineStats) float64 { return float64(st.Merges) }))
	reg.GaugeFunc("twsim_index_mmap_bytes", "", "Index snapshot bytes served from a live file mapping (0 when heap-backed, summed over shards).",
		engine(func(st core.IndexEngineStats) float64 { return float64(st.MmapBytes) }))
	reg.HistogramFunc("twsim_index_merge_seconds", "", "Index snapshot merge latency (slab rebuild + atomic swap).",
		func() obs.HistogramData { return s.backend.IndexEngineStats().MergeHist })

	// Storage-layer counters: the data file's buffer pool (the only pool:
	// the index is walked in place). Each collector snapshots StorageStats
	// at scrape time; snapshots are weakly consistent (see
	// twsim.StorageStats), which is fine for ratios.
	pool := func(sel func(twsim.StorageStats) float64) func() float64 {
		return func() float64 { return sel(s.backend.StorageStats()) }
	}
	const dataPool = `pool="data"`
	reg.CounterFunc("twsim_pool_reads_total", dataPool, "Logical page reads, by buffer pool.", pool(func(st twsim.StorageStats) float64 { return float64(st.Data.Reads) }))
	reg.CounterFunc("twsim_pool_misses_total", dataPool, "Page reads that went to the backend, by buffer pool.", pool(func(st twsim.StorageStats) float64 { return float64(st.Data.Misses) }))
	reg.CounterFunc("twsim_pool_writes_total", dataPool, "Physical page write-backs, by buffer pool.", pool(func(st twsim.StorageStats) float64 { return float64(st.Data.Writes) }))
	reg.GaugeFunc("twsim_pool_hit_ratio", dataPool, "Buffer pool hit ratio (1 - misses/reads).", pool(func(st twsim.StorageStats) float64 { return st.Data.HitRatio() }))

	// Whole-query result cache: collectors snapshot ResultCacheStats at
	// scrape time (all series read 0 with the cache disabled).
	rc := func(sel func(core.ResultCacheStats) float64) func() float64 {
		return func() float64 { return sel(s.backend.ResultCacheStats()) }
	}
	reg.CounterFunc("twsim_result_cache_hits_total", "", "Queries answered from the result cache with zero index/DTW work.",
		rc(func(st core.ResultCacheStats) float64 { return float64(st.Hits) }))
	reg.CounterFunc("twsim_result_cache_misses_total", "", "Result cache lookups that fell through to the index.",
		rc(func(st core.ResultCacheStats) float64 { return float64(st.Misses) }))
	reg.CounterFunc("twsim_result_cache_evictions_total", "", "Result cache entries evicted to stay within the byte budget.",
		rc(func(st core.ResultCacheStats) float64 { return float64(st.Evictions) }))
	reg.CounterFunc("twsim_result_cache_invalidations_total", "", "Result cache entries dropped because a write advanced the database generation.",
		rc(func(st core.ResultCacheStats) float64 { return float64(st.Invalidations) }))
	reg.GaugeFunc("twsim_result_cache_bytes", "", "Bytes resident in the result cache.",
		rc(func(st core.ResultCacheStats) float64 { return float64(st.Bytes) }))
	reg.GaugeFunc("twsim_result_cache_entries", "", "Entries resident in the result cache.",
		rc(func(st core.ResultCacheStats) float64 { return float64(st.Entries) }))
	reg.GaugeFunc("twsim_result_cache_hit_ratio", "", "Result cache hit ratio.",
		rc(func(st core.ResultCacheStats) float64 { return st.HitRatio() }))

	// Admission-control outcomes (see Limits): shed at the queue (429),
	// abandoned on client disconnect (499), abandoned on the per-query
	// deadline (503).
	reg.CounterFunc("twsim_queries_shed_total", "", "Queries rejected at admission control with 429.", counterOf(&s.shed))
	reg.CounterFunc("twsim_queries_cancelled_total", "", "Queries abandoned because the client disconnected (499).", counterOf(&s.cancelled))
	reg.CounterFunc("twsim_queries_deadline_exceeded_total", "", "Queries abandoned on the per-query deadline (503).", counterOf(&s.deadlineExceeded))
	reg.GaugeFunc("twsim_queries_queued", "", "Queries currently waiting for an admission slot.", counterOf(&s.queued))

	// Write-ahead-log counters: scrape-time snapshots of the log's own
	// accounting (all zero with the WAL disabled; summed over shards for a
	// sharded backend). records/fsyncs is the group-commit batching factor.
	wal := func(sel func(twsim.WALStats) float64) func() float64 {
		return func() float64 { return sel(s.backend.WALStats()) }
	}
	reg.CounterFunc("twsim_wal_records_total", "", "Mutations appended to the write-ahead log.",
		wal(func(st twsim.WALStats) float64 { return float64(st.Records) }))
	reg.CounterFunc("twsim_wal_fsyncs_total", "", "WAL fsync batches (group commit makes this grow slower than records under concurrency).",
		wal(func(st twsim.WALStats) float64 { return float64(st.Fsyncs) }))
	reg.CounterFunc("twsim_wal_bytes_total", "", "Bytes appended to the write-ahead log.",
		wal(func(st twsim.WALStats) float64 { return float64(st.Bytes) }))
	reg.CounterFunc("twsim_wal_checkpoints_total", "", "WAL checkpoints (log truncations riding a full flush).",
		wal(func(st twsim.WALStats) float64 { return float64(st.Checkpoints) }))
	reg.GaugeFunc("twsim_wal_file_bytes", "", "Current WAL file size (replay length bound).",
		wal(func(st twsim.WALStats) float64 { return float64(st.FileBytes) }))

	// Replication lag, exported only while the server runs as a replica
	// (the gauges read 0 on a primary or standalone server).
	repl := func(sel func(ReplicaLag) float64) func() float64 {
		return func() float64 {
			rep := s.replica.Load()
			if rep == nil {
				return 0
			}
			return sel(rep.Lag())
		}
	}
	reg.GaugeFunc("twsim_replica_lag_seconds", "", "Seconds since this replica was last fully caught up with the primary (0 when caught up).",
		repl(func(l ReplicaLag) float64 { return l.Seconds }))
	reg.GaugeFunc("twsim_replica_generation_delta", "", "Durable primary mutations not yet applied on this replica.",
		repl(func(l ReplicaLag) float64 { return float64(l.GenerationDelta) }))
	reg.GaugeFunc("twsim_replica_applied_seq", "", "Last primary WAL sequence number applied on this replica.",
		repl(func(l ReplicaLag) float64 { return float64(l.AppliedSeq) }))
	reg.CounterFunc("twsim_replica_resyncs_total", "", "Snapshot re-syncs forced by primary WAL compaction.",
		repl(func(l ReplicaLag) float64 { return float64(l.Resyncs) }))

	return m
}

// observeQuery records one answered query's phase timings into the latency
// histograms (filter only when the query had a distinct filter phase; k-NN
// walks report refine time only).
func (m *serverMetrics) observeQuery(st twsim.QueryStats, hasFilterPhase bool) {
	if hasFilterPhase {
		m.filter.Observe(st.FilterWall)
	}
	m.refine.Observe(st.RefineWall)
}

// statusRecorder captures the status code a handler wrote so the
// instrumentation can classify the request.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the endpoint's request counter and
// latency histogram. The observation is two atomic adds plus one counter
// increment; the recorder is the only per-request allocation.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	em := s.metrics.endpoints[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		em.latency.Observe(time.Since(start))
		switch {
		case rec.status >= 500:
			em.serverErr.Inc()
		case rec.status >= 400:
			em.clientErr.Inc()
		default:
			em.ok.Inc()
		}
	}
}

// handleMetrics serves the Prometheus text exposition of every registered
// instrument.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.reg.WriteText(w)
}
