package benchkit

import "math"

// Passes: after ingest the op list runs once unmeasured and then five
// measured times; every timing metric is the median of the five.
const (
	WarmupPasses   = 1
	MeasuredPasses = 5
)

// LatencyLimitMS is the open loop's latency limit: a request answered
// later than this after its due instant does not count towards goodput.
const LatencyLimitMS = 50

// Workload is one named traffic mix against one corpus and one set of
// server flags.
type Workload struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json
	// Flags are the twsimd flags beyond -db/-create/-addr. Nothing else is
	// passed, so the defaults users get are what is measured.
	Flags []string
	// EqualLength selects walk_eq128 (every sequence 128 long) over
	// walk_mixed (lengths uniform in 64..192).
	EqualLength bool
	Mix         Mix
	// Rate > 0 makes the workload an open loop at that many ops/s.
	Rate float64
	// OpsPerSecond is a closed loop's probed capacity on the 2-core
	// reference box. It (or the open loop's Rate) sizes the op list so that
	// the measured passes last about as long as the run was asked to
	// measure; the work is then fixed, not the time.
	OpsPerSecond float64
}

// OpsPerPass sizes one pass of the op list for a run asked to measure for
// the given number of seconds.
func (w Workload) OpsPerPass(seconds float64) int {
	rate := w.OpsPerSecond
	if w.Rate > 0 {
		rate = w.Rate
	}
	n := int(math.Round(rate * seconds / MeasuredPasses / 20))
	if n < 2 {
		n = 2
	}
	return n * 20 // whole blocks of 20 keep the write shares exact
}

// Workloads are the four named workloads. Later issues cite the names.
var Workloads = []Workload{
	{
		Name:         "range_unbanded",
		Why:          "the paper's query: unbanded range search over mixed lengths, where the exact DP does most of the work and the heap working set dwarfs every cache",
		Mix:          Mix{Query: KindSearch, Epsilon: 0.30},
		OpsPerSecond: 42,
	},
	{
		Name:         "knn_banded",
		Why:          "banded k-NN over equal lengths: the index walk and the envelope tiers do most of the work and the DP little, so a DP-kernel gain should not show here",
		EqualLength:  true,
		Mix:          Mix{Query: KindKNN, K: 10, Band: 8},
		OpsPerSecond: 300,
	},
	{
		Name:         "mixed_rw_wal",
		Why:          "writes beside reads with the WAL on: group commit, fsync, index insert and delete, checkpoints and the writer lock in front of readers, ended by kill -9 and a read-back",
		Flags:        []string{"-wal", "-wal-checkpoint-mb", "1"},
		Mix:          Mix{Query: KindSearch, Epsilon: 0.20, AddsPer20: 2, BatchesPer20: 1, DeletesPer20: 1},
		OpsPerSecond: 245,
	},
	{
		Name:  "zipf_cached_open",
		Why:   "open loop at a fixed rate with Zipf-repeated queries and the result cache on: the serving path does most of the work, core and dtw little",
		Flags: []string{"-result-cache-mb", "64"},
		Mix:   Mix{Query: KindSearch, Epsilon: 0.20, Distinct: 500, ZipfS: 1.2, AddEvery: 400},
		Rate:  200,
	},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Metric is one named, united number the benchmark prints.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// EndToEnd are the metrics a user of the server would see. Each is printed
// for every workload with tracing off. The bounds are sized from the spread
// of runs of unchanged code on the shared 2-core reference box
// (cmd/bench/REPEATABILITY.md): identical runs minutes apart differ by up to
// a tenth in throughput there, so a tighter bound would flag noise.
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"cpu_s_per_kop", "s/kop", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.20},
	{"disk_bytes_per_user_byte", "ratio", "lower", 0.01},
}

// PerLayer are the single-layer metrics, printed for every workload by the
// traced run. A metric whose layer a workload does not use reads 0 there
// (wal.* without -wal, core.resultcache_* with the cache off).
var PerLayer = []Metric{
	{Name: "error_rate", Unit: "ratio", Better: "lower"},

	{Name: "client.query_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.query_tail_pct", Unit: "%", Better: "higher"},
	{Name: "client.write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.write_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.batch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.delete_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.sched_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.offered_ops_s", Unit: "ops/s", Better: "higher"},

	{Name: "server.overhead_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.resp_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "server.shed_total", Unit: "count", Better: "lower"},
	{Name: "server.http_5xx_total", Unit: "count", Better: "lower"},
	{Name: "server.handler_us_per_op", Unit: "us", Better: "lower"},
	{Name: "server.decode_us_per_op", Unit: "us", Better: "lower"},
	{Name: "server.encode_us_per_op", Unit: "us", Better: "lower"},

	{Name: "core.resultcache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.resultcache_invalidations", Unit: "count", Better: "lower"},
	{Name: "core.candidates_per_query", Unit: "count", Better: "lower"},
	{Name: "core.results_per_query", Unit: "count", Better: "higher"},
	{Name: "core.filter_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "core.refine_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "core.lb_kim_pruned_share", Unit: "ratio", Better: "higher"},
	{Name: "core.lb_paa_pruned_share", Unit: "ratio", Better: "higher"},
	{Name: "core.lb_keogh_pruned_share", Unit: "ratio", Better: "higher"},
	{Name: "core.lb_yi_pruned_share", Unit: "ratio", Better: "higher"},
	{Name: "core.lb_improved_pruned_share", Unit: "ratio", Better: "higher"},
	{Name: "core.corridor_pruned_share", Unit: "ratio", Better: "higher"},
	{Name: "core.dtw_call_share", Unit: "ratio", Better: "lower"},
	{Name: "core.dtw_abandoned_share", Unit: "ratio", Better: "higher"},
	{Name: "core.knn_repushes_per_query", Unit: "count", Better: "lower"},
	{Name: "core.knn_env_cutoffs_per_query", Unit: "count", Better: "higher"},
	{Name: "core.search_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "core.residual_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "ledger.coverage", Unit: "ratio", Better: "higher"},

	{Name: "rtree.range_walk_us_per_query", Unit: "us", Better: "lower"},
	{Name: "flatidx.range_walk_us_per_query", Unit: "us", Better: "lower"},
	{Name: "rtree.knn_walk_us_per_query", Unit: "us", Better: "lower"},
	{Name: "flatidx.knn_walk_us_per_query", Unit: "us", Better: "lower"},
	{Name: "rtree.insert_us_per_seq", Unit: "us", Better: "lower"},
	{Name: "flatidx.insert_us_per_seq", Unit: "us", Better: "lower"},
	{Name: "rtree.node_reads_per_query", Unit: "count", Better: "lower"},
	{Name: "flatidx.delta_entries", Unit: "count", Better: "lower"},
	{Name: "flatidx.merges", Unit: "count", Better: "lower"},
	{Name: "flatidx.merge_s_total", Unit: "s", Better: "lower"},

	{Name: "dtw.dp_us_per_call", Unit: "us", Better: "lower"},
	{Name: "dtw.dp_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "dtw.dp_cells_per_query", Unit: "count", Better: "lower"},
	{Name: "dtw.envelope_us_per_query", Unit: "us", Better: "lower"},
	{Name: "dtw.lb_keogh_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "dtw.lb_improved_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "dtw.lb_yi_ns_per_call", Unit: "ns", Better: "lower"},

	{Name: "seqdb.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pagefile.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pagefile.reads_per_query", Unit: "count", Better: "lower"},
	{Name: "pagefile.misses_per_query", Unit: "count", Better: "lower"},
	{Name: "pagefile.writes_per_write_op", Unit: "count", Better: "lower"},
	{Name: "seqdb.get_us_per_fetch", Unit: "us", Better: "lower"},
	{Name: "seqdb.append_us_per_seq", Unit: "us", Better: "lower"},
	{Name: "seq.feature_us_per_seq", Unit: "us", Better: "lower"},
	{Name: "seq.paa_us_per_seq", Unit: "us", Better: "lower"},
	{Name: "seqdb.reopen_ms", Unit: "ms", Better: "lower"},

	{Name: "wal.fsyncs_per_write", Unit: "ratio", Better: "lower"},
	{Name: "wal.bytes_per_write", Unit: "bytes", Better: "lower"},
	{Name: "wal.checkpoints", Unit: "count", Better: "lower"},
	{Name: "wal.file_bytes_end", Unit: "bytes", Better: "lower"},
	{Name: "wal.append_us_per_record", Unit: "us", Better: "lower"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower"},

	{Name: "shard.slowdown_2shards", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}
