package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	twsim "repro"
	"repro/internal/obs"
)

// newMetricsServer boots an httptest server over the given backend and
// returns a scraper along with the usual client.
func newMetricsServer(t *testing.T, db twsim.Backend) (*httptest.Server, *Client) {
	t.Helper()
	srv := NewBackend(db)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		db.Close()
	})
	return ts, NewClient(ts.URL, ts.Client())
}

func scrape(t *testing.T, ts *httptest.Server) obs.Samples {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	return samples
}

func mustValue(t *testing.T, s obs.Samples, name string, labels map[string]string) float64 {
	t.Helper()
	v, ok := s.Value(name, labels)
	if !ok {
		t.Fatalf("series %s%v missing from /metrics", name, labels)
	}
	return v
}

// randomWalks returns n random-walk sequences of varying length.
func randomWalks(rng *rand.Rand, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		s := make([]float64, 8+rng.Intn(12))
		s[0] = rng.Float64() * 4
		for j := 1; j < len(s); j++ {
			s[j] = s[j-1] + rng.Float64()*0.6 - 0.3
		}
		out[i] = s
	}
	return out
}

// metricsBackends enumerates the engines × refine-worker budgets the
// conservation tests must hold on.
func metricsBackends(t *testing.T) []struct {
	name string
	open func(t *testing.T) twsim.Backend
} {
	t.Helper()
	var out []struct {
		name string
		open func(t *testing.T) twsim.Backend
	}
	for _, workers := range []int{1, 4} {
		w := workers
		out = append(out,
			struct {
				name string
				open func(t *testing.T) twsim.Backend
			}{fmt.Sprintf("single/workers=%d", w), func(t *testing.T) twsim.Backend {
				db, err := twsim.OpenMem(twsim.Options{RefineWorkers: w})
				if err != nil {
					t.Fatal(err)
				}
				return db
			}},
			struct {
				name string
				open func(t *testing.T) twsim.Backend
			}{fmt.Sprintf("sharded/workers=%d", w), func(t *testing.T) twsim.Backend {
				db, err := twsim.OpenMemSharded(twsim.ShardedOptions{Options: twsim.Options{RefineWorkers: w}, Shards: 3})
				if err != nil {
					t.Fatal(err)
				}
				return db
			}},
		)
	}
	return out
}

// TestMetricsExposition: /metrics serves parseable Prometheus text with the
// per-endpoint request counters, latency histograms, and query counters
// reflecting the traffic actually served.
func TestMetricsExposition(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts, c := newMetricsServer(t, db)
	rng := rand.New(rand.NewSource(7))
	if _, err := c.AddBatch(randomWalks(rng, 20)); err != nil {
		t.Fatal(err)
	}
	q := randomWalks(rng, 1)[0]
	if _, err := c.Search(q, 0.8); err != nil {
		t.Fatal(err)
	}
	if _, err := c.NearestK(q, 3); err != nil {
		t.Fatal(err)
	}
	// One client error: the empty query must land in the 4xx counter.
	if _, err := c.Search(nil, 1); err == nil {
		t.Fatal("empty query unexpectedly accepted")
	}

	s := scrape(t, ts)
	if got := mustValue(t, s, "twsim_queries_total", nil); got != 2 {
		t.Errorf("twsim_queries_total = %g, want 2", got)
	}
	if got := mustValue(t, s, "twsim_http_requests_total", map[string]string{"endpoint": "search", "code": "2xx"}); got != 1 {
		t.Errorf(`search 2xx = %g, want 1`, got)
	}
	if got := mustValue(t, s, "twsim_http_requests_total", map[string]string{"endpoint": "search", "code": "4xx"}); got != 1 {
		t.Errorf(`search 4xx = %g, want 1`, got)
	}
	if got := mustValue(t, s, "twsim_http_requests_total", map[string]string{"endpoint": "knn", "code": "2xx"}); got != 1 {
		t.Errorf(`knn 2xx = %g, want 1`, got)
	}
	if got := mustValue(t, s, "twsim_http_request_duration_seconds_count", map[string]string{"endpoint": "search"}); got != 2 {
		t.Errorf("search latency count = %g, want 2", got)
	}
	if got := mustValue(t, s, "twsim_query_filter_seconds_count", nil); got != 1 {
		t.Errorf("filter-phase observations = %g, want 1 (/search only)", got)
	}
	if got := mustValue(t, s, "twsim_query_refine_seconds_count", nil); got != 2 {
		t.Errorf("refine-phase observations = %g, want 2 (/search + /knn)", got)
	}
	if got := mustValue(t, s, "twsim_sequences", nil); got != 20 {
		t.Errorf("twsim_sequences = %g, want 20", got)
	}
	for _, name := range []string{
		"twsim_data_bytes", "twsim_index_pages",
		"twsim_seq_cache_hits_total", "twsim_seq_cache_misses_total", // constant 0, kept for cmd/bench
	} {
		mustValue(t, s, name, nil)
	}
	for _, name := range []string{"twsim_seq_cache_bytes", "twsim_seq_cache_entries", "twsim_seq_cache_hit_ratio"} {
		if _, ok := s.Value(name, nil); ok {
			t.Errorf("%s is exported: the sequence cache is gone", name)
		}
	}
	mustValue(t, s, "twsim_pool_reads_total", map[string]string{"pool": "data"})
	mustValue(t, s, "twsim_pool_hit_ratio", map[string]string{"pool": "data"})
	// Memory: 20 sequences fill part of one 1 024-record chunk of packed
	// 132-byte envelopes; the Go heap series are live runtime readings.
	if got := mustValue(t, s, "twsim_envelope_store_bytes", nil); got != 1024*132 {
		t.Errorf("twsim_envelope_store_bytes = %g, want one chunk, %d", got, 1024*132)
	}
	for _, name := range []string{"twsim_go_heap_inuse_bytes", "twsim_go_heap_sys_bytes", "twsim_go_next_gc_bytes"} {
		if got := mustValue(t, s, name, nil); got <= 0 {
			t.Errorf("%s = %g, want > 0", name, got)
		}
	}
}

// conservation reads both sides of the conservation law from a scrape:
// twsim_query_candidates_total, and every per-tier pruned series plus
// twsim_dtw_calls_total — the three constant-0 series of the deleted tiers
// included, since the benchmark's ledger sums them too.
func conservation(t *testing.T, s obs.Samples) (candidates, prunedPlusDTW float64) {
	t.Helper()
	for _, name := range []string{
		"twsim_lb_kim_pruned_total", "twsim_lb_paa_pruned_total", "twsim_lb_keogh_pruned_total",
		"twsim_lb_yi_pruned_total", "twsim_lb_improved_pruned_total", "twsim_corridor_pruned_total",
		"twsim_dtw_calls_total",
	} {
		prunedPlusDTW += mustValue(t, s, name, nil)
	}
	return mustValue(t, s, "twsim_query_candidates_total", nil), prunedPlusDTW
}

// TestMetricsConservationLaw: across mixed /search + /knn traffic, the
// exported counters obey candidates = Σ per-tier pruned + dtw_calls, on
// both engines at serial and parallel refinement budgets — the scrape-time
// view of the same ledger TestParallelRefineOracle checks per query.
func TestMetricsConservationLaw(t *testing.T) {
	for _, be := range metricsBackends(t) {
		t.Run(be.name, func(t *testing.T) {
			ts, c := newMetricsServer(t, be.open(t))
			rng := rand.New(rand.NewSource(11))
			if _, err := c.AddBatch(randomWalks(rng, 60)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				q := randomWalks(rng, 1)[0]
				if _, err := c.Search(q, 0.2+rng.Float64()); err != nil {
					t.Fatal(err)
				}
				if _, err := c.NearestK(q, 1+rng.Intn(5)); err != nil {
					t.Fatal(err)
				}
			}

			s := scrape(t, ts)
			cand, sum := conservation(t, s)
			if cand != sum {
				t.Errorf("conservation law violated: candidates=%g, pruned+dtw=%g", cand, sum)
			}
			if cand == 0 {
				t.Error("no candidates counted; the workload exercised nothing")
			}
			if got := mustValue(t, s, "twsim_queries_total", nil); got != 12 {
				t.Errorf("twsim_queries_total = %g, want 12", got)
			}
		})
	}
}

// TestMetricsBandedConservation: banded /search and /knn over equal-length
// walks, where LB_Keogh on the banded envelope is the last tier before the
// DP. The deleted LB_Improved tier's series stays registered and reads 0,
// no response or /stats section carries its counter, and the law
// candidates = lb_paa + lb_keogh + corridor + dtw_calls holds.
func TestMetricsBandedConservation(t *testing.T) {
	for _, be := range metricsBackends(t) {
		t.Run(be.name, func(t *testing.T) {
			ts, c := newMetricsServer(t, be.open(t))
			rng := rand.New(rand.NewSource(19))
			walks := make([][]float64, 80)
			for i := range walks { // equal lengths, long enough that LB_PAA leaves LB_Keogh work
				s := make([]float64, 24)
				s[0] = rng.Float64() * 4
				for j := 1; j < len(s); j++ {
					s[j] = s[j-1] + rng.Float64()*0.6 - 0.3
				}
				walks[i] = s
			}
			if _, err := c.AddBatch(walks); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				q := walks[rng.Intn(len(walks))]
				if _, err := c.SearchCtx(nil, q, 0.3+rng.Float64(), 2); err != nil {
					t.Fatal(err)
				}
				if _, err := c.NearestKCtx(nil, q, 1+rng.Intn(5), 2); err != nil {
					t.Fatal(err)
				}
			}
			req, err := json.Marshal(map[string]any{"query": walks[0], "k": 3, "band": 2})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Post(ts.URL+"/knn", "application/json", bytes.NewReader(req))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("banded /knn: %s %v %s", resp.Status, err, body)
			}
			stats, err := ts.Client().Get(ts.URL + "/stats")
			if err != nil {
				t.Fatal(err)
			}
			statsBody, err := io.ReadAll(stats.Body)
			stats.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			for what, b := range map[string][]byte{"/knn response": body, "/stats": statsBody} {
				if strings.Contains(string(b), "lb_improved_pruned") {
					t.Errorf("%s still carries the deleted lb_improved_pruned counter: %s", what, b)
				}
			}

			s := scrape(t, ts)
			if got := mustValue(t, s, "twsim_lb_improved_pruned_total", nil); got != 0 {
				t.Errorf("twsim_lb_improved_pruned_total = %g, want 0", got)
			}
			if got := mustValue(t, s, "twsim_lb_keogh_pruned_total", nil); got == 0 {
				t.Error("banded LB_Keogh pruned nothing; the workload did not reach the tier")
			}
			cand, sum := conservation(t, s)
			if cand != sum {
				t.Errorf("conservation law violated: candidates=%g, pruned+dtw=%g", cand, sum)
			}
			if got := mustValue(t, s, "twsim_queries_total", nil); got != 13 {
				t.Errorf("twsim_queries_total = %g, want 13", got)
			}
		})
	}
}

// TestMetricsScrapeStorm hammers /metrics from many goroutines while mixed
// write/search/k-NN traffic runs — the race detector (make race) watches
// the lock-free counters and scrape-time collectors; afterwards the
// exposition must still parse and balance.
func TestMetricsScrapeStorm(t *testing.T) {
	db, err := twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts, c := newMetricsServer(t, db)
	rng := rand.New(rand.NewSource(13))
	if _, err := c.AddBatch(randomWalks(rng, 30)); err != nil {
		t.Fatal(err)
	}
	queries := randomWalks(rng, 8)

	const scrapers, drivers, iters = 4, 4, 15
	var wg sync.WaitGroup
	errCh := make(chan error, scrapers+drivers)
	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := ts.Client().Get(ts.URL + "/metrics")
				if err != nil {
					errCh <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				if _, err := obs.ParseText(body); err != nil {
					errCh <- fmt.Errorf("mid-traffic exposition does not parse: %w", err)
					return
				}
			}
		}()
	}
	for g := 0; g < drivers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := queries[(g*iters+i)%len(queries)]
				if _, err := c.Search(q, 0.5); err != nil {
					errCh <- err
					return
				}
				if _, err := c.NearestK(q, 2); err != nil {
					errCh <- err
					return
				}
				if _, err := c.Add(q); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	s := scrape(t, ts)
	cand, sum := conservation(t, s)
	if cand != sum {
		t.Errorf("conservation law violated after the storm: candidates=%g, pruned+dtw=%g", cand, sum)
	}
	if got := mustValue(t, s, "twsim_queries_total", nil); got != drivers*iters*2 {
		t.Errorf("twsim_queries_total = %g, want %d", got, drivers*iters*2)
	}
}

// TestMetricsWALFsyncLatency: with the WAL on, twsim_wal_fsync_seconds
// times every fsync twsim_wal_fsyncs_total counts — group-commit flushes
// and the checkpoint a Flush takes — on a single and a sharded database.
func TestMetricsWALFsyncLatency(t *testing.T) {
	opts := twsim.Options{WAL: true}
	for name, open := range map[string]func() (twsim.Backend, error){
		"single": func() (twsim.Backend, error) { return twsim.Create(t.TempDir(), opts) },
		"sharded": func() (twsim.Backend, error) {
			return twsim.CreateSharded(t.TempDir(), twsim.ShardedOptions{Options: opts, Shards: 2})
		},
	} {
		t.Run(name, func(t *testing.T) {
			db, err := open()
			if err != nil {
				t.Fatal(err)
			}
			ts, c := newMetricsServer(t, db)
			rng := rand.New(rand.NewSource(23))
			for _, v := range randomWalks(rng, 6) {
				if _, err := c.Add(v); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			s := scrape(t, ts)
			fsyncs := mustValue(t, s, "twsim_wal_fsyncs_total", nil)
			if fsyncs < 7 {
				t.Fatalf("twsim_wal_fsyncs_total = %g, want ≥ 6 flushes + a checkpoint", fsyncs)
			}
			if got := mustValue(t, s, "twsim_wal_fsync_seconds_count", nil); got != fsyncs {
				t.Errorf("twsim_wal_fsync_seconds_count = %g, twsim_wal_fsyncs_total = %g", got, fsyncs)
			}
			if sum := mustValue(t, s, "twsim_wal_fsync_seconds_sum", nil); sum <= 0 {
				t.Errorf("twsim_wal_fsync_seconds_sum = %g, want > 0", sum)
			}
		})
	}
}

// TestNonFiniteHTTP400: numbers that would decode to ±Inf (1e999 overflows
// float64) are rejected with 400 at every write/query endpoint — the wire
// can't even spell NaN in JSON, and the backend validation (ErrNonFinite)
// backstops any path that slips a non-finite value through decoding.
func TestNonFiniteHTTP400(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts, c := newMetricsServer(t, db)
	if _, err := c.Add([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, body string }{
		{"/sequences", `{"values": [1, 1e999]}`},
		{"/sequences/batch", `{"sequences": [[1,2],[1e999]]}`},
		{"/search", `{"query": [1e999], "epsilon": 1}`},
		{"/knn", `{"query": [1e999], "k": 1}`},
	} {
		resp, err := ts.Client().Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s with overflow value: %s, want 400", tc.path, resp.Status)
		}
	}
	if db.Len() != 1 {
		t.Errorf("rejected writes changed Len to %d", db.Len())
	}
}

// TestSearchResponseRequestID: /search and /knn responses carry distinct
// non-zero request IDs — the join key for the slow-query log.
func TestSearchResponseRequestID(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, c := newMetricsServer(t, db)
	rng := rand.New(rand.NewSource(17))
	if _, err := c.AddBatch(randomWalks(rng, 10)); err != nil {
		t.Fatal(err)
	}
	q := randomWalks(rng, 1)[0]
	res1, err := c.Search(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := c.Search(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res1.RequestID == 0 || res2.RequestID == 0 {
		t.Fatalf("request IDs not stamped: %d, %d", res1.RequestID, res2.RequestID)
	}
	if res1.RequestID == res2.RequestID {
		t.Fatalf("request ID %d reused", res1.RequestID)
	}
}
