package main

import (
	"repro/internal/benchkit"
)

// mainLedger is the part of the per-layer ledger read from outside the
// running server: the client's own samples and the /metrics counters
// diffed around the measured passes. It costs the server nothing, so it
// comes from the same passes as the end-to-end metrics.
func mainLedger(w benchkit.Workload, m measuredStats, d benchkit.MetricsDelta) (map[string]float64, error) {
	pl := map[string]float64{}
	// A series the server no longer exports fails the run: it must not
	// read as zero.
	var missing error
	counter := func(name string, labels map[string]string) float64 {
		v, err := d.Counter(name, labels)
		if err != nil && missing == nil {
			missing = err
		}
		return v
	}
	gauge := func(name string) float64 {
		v, err := d.Gauge(name, nil)
		if err != nil && missing == nil {
			missing = err
		}
		return v
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// client: the tails behind query_p50_ms, pooled over the measured passes.
	queryLat := m.pooled[w.Mix.Query]
	pl["client.query_p95_ms"], _ = benchkit.TailPercentile(queryLat, 95)
	pl["client.query_p99_ms"], pl["client.query_tail_pct"] = benchkit.TailPercentile(queryLat, 99)
	pl["client.samples"] = float64(len(queryLat))
	pl["client.write_p50_ms"] = medianOrZero(m.writeP50)
	pl["client.write_p99_ms"] = 0
	if adds := m.pooled[benchkit.KindAdd]; len(adds) > 0 {
		pl["client.write_p99_ms"], _ = benchkit.TailPercentile(adds, 99)
	}
	pl["client.batch_p50_ms"] = medianOrZero(m.pooled[benchkit.KindAddBatch])
	pl["client.delete_p50_ms"] = medianOrZero(m.pooled[benchkit.KindDelete])
	pl["client.sched_lag_p99_ms"] = 0
	if len(m.lag) > 0 {
		pl["client.sched_lag_p99_ms"], _ = benchkit.TailPercentile(m.lag, 99)
	}
	pl["client.offered_ops_s"] = benchkit.Median(m.offered)
	if w.Rate > 0 {
		pl["client.offered_ops_s"] = w.Rate
	}

	// server: what the serving path adds around the backend's own wall time.
	pl["server.overhead_p50_ms"] = medianOrZero(m.overhead)
	pl["server.resp_bytes_per_op"] = ratio(float64(m.bytes), float64(m.queries))
	pl["server.shed_total"] = counter("twsim_queries_shed_total", nil)
	pl["server.http_5xx_total"] = d.Sum("twsim_http_requests_total", map[string]string{"code": "5xx"})

	// core: cache, candidates, and where candidates ended (shares sum to 1).
	hits, misses := counter("twsim_result_cache_hits_total", nil), counter("twsim_result_cache_misses_total", nil)
	pl["core.resultcache_hit_ratio"] = ratio(hits, hits+misses)
	pl["core.resultcache_invalidations"] = counter("twsim_result_cache_invalidations_total", nil)
	queries := counter("twsim_queries_total", nil)
	cands := counter("twsim_query_candidates_total", nil)
	pl["core.candidates_per_query"] = ratio(cands, queries)
	pl["core.results_per_query"] = ratio(counter("twsim_query_results_total", nil), queries)
	pl["core.filter_ms_per_query"] = 1000 * ratio(counter("twsim_query_filter_seconds_sum", nil), counter("twsim_query_filter_seconds_count", nil))
	pl["core.refine_ms_per_query"] = 1000 * ratio(counter("twsim_query_refine_seconds_sum", nil), counter("twsim_query_refine_seconds_count", nil))
	for name, series := range map[string]string{
		"core.lb_kim_pruned_share":      "twsim_lb_kim_pruned_total",
		"core.lb_paa_pruned_share":      "twsim_lb_paa_pruned_total",
		"core.lb_keogh_pruned_share":    "twsim_lb_keogh_pruned_total",
		"core.lb_yi_pruned_share":       "twsim_lb_yi_pruned_total",
		"core.lb_improved_pruned_share": "twsim_lb_improved_pruned_total",
		"core.corridor_pruned_share":    "twsim_corridor_pruned_total",
		"core.dtw_call_share":           "twsim_dtw_calls_total",
		"core.dtw_abandoned_share":      "twsim_dtw_abandoned_total",
	} {
		pl[name] = ratio(counter(series, nil), cands)
	}
	pl["core.knn_repushes_per_query"] = ratio(counter("twsim_knn_frontier_repushes_total", nil), queries)
	pl["core.knn_env_cutoffs_per_query"] = ratio(counter("twsim_knn_envelope_cutoffs_total", nil), queries)

	// flatidx: only moves when the serving engine is the flat one.
	pl["flatidx.delta_entries"] = gauge("twsim_index_delta_entries")
	pl["flatidx.merges"] = counter("twsim_index_merges_total", nil)
	pl["flatidx.merge_s_total"] = counter("twsim_index_merge_seconds_sum", nil)

	// seqdb / pagefile: the heap behind the candidate fetches.
	data := map[string]string{"pool": "data"}
	cacheHits, cacheMisses := counter("twsim_seq_cache_hits_total", nil), counter("twsim_seq_cache_misses_total", nil)
	pl["seqdb.cache_hit_ratio"] = ratio(cacheHits, cacheHits+cacheMisses)
	reads, poolMisses := counter("twsim_pool_reads_total", data), counter("twsim_pool_misses_total", data)
	pl["pagefile.pool_hit_ratio"] = ratio(reads-poolMisses, reads)
	pl["pagefile.reads_per_query"] = ratio(reads, queries)
	pl["pagefile.misses_per_query"] = ratio(poolMisses, queries)
	writeOps := float64(len(m.pooled[benchkit.KindAdd]) + len(m.pooled[benchkit.KindAddBatch]) + len(m.pooled[benchkit.KindDelete]))
	pl["pagefile.writes_per_write_op"] = ratio(d.Sum("twsim_pool_writes_total", nil), writeOps)

	// wal: all zero without -wal.
	pl["wal.fsyncs_per_write"] = ratio(counter("twsim_wal_fsyncs_total", nil), writeOps)
	pl["wal.bytes_per_write"] = ratio(counter("twsim_wal_bytes_total", nil), writeOps)
	pl["wal.checkpoints"] = counter("twsim_wal_checkpoints_total", nil)
	pl["wal.file_bytes_end"] = gauge("twsim_wal_file_bytes")
	return pl, missing
}

func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return benchkit.Median(xs)
}
