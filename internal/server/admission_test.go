package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	twsim "repro"
)

func newLimitedServer(t *testing.T, opts twsim.Options, limits Limits) (*Server, *Client, *httptest.Server) {
	t.Helper()
	db, err := twsim.OpenMem(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewBackendLimits(db, limits)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		db.Close()
	})
	return srv, NewClient(ts.URL, ts.Client()), ts
}

func statsSection(t *testing.T, ts *httptest.Server, key string) map[string]any {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	section, ok := raw[key].(map[string]any)
	if !ok {
		t.Fatalf("/stats is missing the %q section", key)
	}
	return section
}

// TestAdmissionShed: with every slot occupied and no queue, an arriving
// query is refused with 429 + Retry-After, the client surfaces it as
// *ErrOverloaded, and the outcome shows up in /stats and /metrics. A freed
// slot admits the next query normally.
func TestAdmissionShed(t *testing.T) {
	srv, c, ts := newLimitedServer(t, twsim.Options{},
		Limits{MaxInflight: 1, QueueDepth: 0, RetryAfterSeconds: 3})
	if _, err := c.Add([]float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	// Occupy the only slot directly; no timing games.
	srv.sem <- struct{}{}
	_, err := c.Search([]float64{1, 2, 3, 4}, 0.1)
	var oe *ErrOverloaded
	if !errors.As(err, &oe) {
		t.Fatalf("search under overload returned %v, want *ErrOverloaded", err)
	}
	if oe.RetryAfter != 3*time.Second {
		t.Fatalf("RetryAfter = %s, want 3s", oe.RetryAfter)
	}
	adm := statsSection(t, ts, "admission")
	if adm["shed"].(float64) != 1 {
		t.Fatalf("admission.shed = %v, want 1", adm["shed"])
	}
	if got := mustValue(t, scrape(t, ts), "twsim_queries_shed_total", nil); got != 1 {
		t.Fatalf("twsim_queries_shed_total = %g, want 1", got)
	}
	// Release the slot: service resumes.
	<-srv.sem
	if _, err := c.Search([]float64{1, 2, 3, 4}, 0.1); err != nil {
		t.Fatalf("search after slot release: %v", err)
	}
}

// TestAdmissionQueue: a query arriving with all slots busy but queue room
// waits for a slot rather than shedding, and completes once one frees; a
// second arrival finding the queue full sheds.
func TestAdmissionQueue(t *testing.T) {
	srv, c, _ := newLimitedServer(t, twsim.Options{},
		Limits{MaxInflight: 1, QueueDepth: 1})
	if _, err := c.Add([]float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	srv.sem <- struct{}{}
	var wg sync.WaitGroup
	wg.Add(1)
	queuedErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := c.Search([]float64{1, 2, 3, 4}, 0.1)
		queuedErr <- err
	}()
	// Wait until the query is parked in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for srv.queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Queue full now: the next arrival sheds.
	_, err := c.Search([]float64{1, 2, 3, 4}, 0.1)
	var oe *ErrOverloaded
	if !errors.As(err, &oe) {
		t.Fatalf("second arrival returned %v, want *ErrOverloaded", err)
	}
	// Free the slot: the queued query must complete successfully.
	<-srv.sem
	wg.Wait()
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued query failed: %v", err)
	}
}

// TestServerQueryDeadline: a query running past Options.QueryDeadline is
// abandoned and answered with 503, counted on /stats and /metrics.
func TestServerQueryDeadline(t *testing.T) {
	_, c, ts := newLimitedServer(t, twsim.Options{QueryDeadline: time.Nanosecond}, Limits{})
	// Enough data that the deadline fires long before the query finishes.
	walks := shardedWalks(42, 60, 24, 48)
	if _, err := c.AddBatchIDs(walks); err != nil {
		t.Fatal(err)
	}
	_, err := c.Search(walks[0], 1e9)
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("deadline query returned %v, want a 503", err)
	}
	adm := statsSection(t, ts, "admission")
	if adm["deadline_exceeded"].(float64) != 1 {
		t.Fatalf("admission.deadline_exceeded = %v, want 1", adm["deadline_exceeded"])
	}
}

// TestServerCacheHitOnWire: with the result cache enabled a repeated
// /search answers cache_hit=true with identical matches and the counters
// appear on /stats and /metrics.
func TestServerCacheHitOnWire(t *testing.T) {
	_, c, ts := newLimitedServer(t, twsim.Options{ResultCacheBytes: 1 << 20}, Limits{})
	walks := shardedWalks(43, 20, 12, 24)
	if _, err := c.AddBatchIDs(walks); err != nil {
		t.Fatal(err)
	}
	cold, err := c.Search(walks[3], 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Fatal("cold query reported cache_hit")
	}
	hot, err := c.Search(walks[3], 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !hot.CacheHit {
		t.Fatal("repeat query did not report cache_hit")
	}
	if hot.Stats.DTWCalls != 0 || hot.Stats.Candidates != 0 {
		t.Fatalf("cache hit did index work: %+v", hot.Stats)
	}
	if len(hot.Matches) != len(cold.Matches) {
		t.Fatalf("cached matches %d, cold %d", len(hot.Matches), len(cold.Matches))
	}
	rc := statsSection(t, ts, "result_cache")
	if rc["hits"].(float64) < 1 {
		t.Fatalf("result_cache.hits = %v, want >= 1", rc["hits"])
	}
	s := scrape(t, ts)
	if got := mustValue(t, s, "twsim_result_cache_hits_total", nil); got != 1 {
		t.Fatalf("twsim_result_cache_hits_total = %g, want 1", got)
	}
	if got := mustValue(t, s, "twsim_result_cache_hit_ratio", nil); got <= 0 || got >= 1 {
		t.Fatalf("twsim_result_cache_hit_ratio = %g, want in (0, 1)", got)
	}
}

// TestServerClientDisconnect: a client abandoning its request mid-query
// makes the server abandon the query too — counted as cancelled — and the
// accounted DTW work stays frozen (abandoned queries never accumulate into
// the query totals), while the server keeps answering other clients.
func TestServerClientDisconnect(t *testing.T) {
	_, c, ts := newLimitedServer(t, twsim.Options{}, Limits{})
	// A workload large enough that the query is still running when the
	// cancellation lands: 8000 stored walks all forced through exact DTW
	// by the huge epsilon (2000 finished inside the 10 ms one run in five).
	walks := shardedWalks(44, 8000, 80, 120)
	if _, err := c.AddBatchIDs(walks); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := c.SearchCtx(ctx, walks[0], 1e12, -1); err == nil {
		t.Fatal("cancelled request returned a result")
	}
	// The server notices the disconnect asynchronously; wait for the
	// counter rather than racing it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		adm := statsSection(t, ts, "admission")
		if adm["cancelled"].(float64) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never recorded the cancelled query")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Abandoned queries contribute nothing to the totals: no DTW work was
	// accounted, and none trickles in afterwards.
	if got := mustValue(t, scrape(t, ts), "twsim_dtw_calls_total", nil); got != 0 {
		t.Fatalf("twsim_dtw_calls_total = %g after an abandoned query, want 0", got)
	}
	// The server remains healthy for other clients.
	if _, err := c.Search(walks[1][:10], 0.01); err != nil {
		t.Fatalf("follow-up query failed: %v", err)
	}
}

// TestServerStatusCodes pins the new status mapping: 429 carries the JSON
// error envelope and the Retry-After header on the raw wire.
func TestServerStatusCodes(t *testing.T) {
	srv, _, ts := newLimitedServer(t, twsim.Options{}, Limits{MaxInflight: 1})
	srv.sem <- struct{}{}
	resp, err := ts.Client().Post(ts.URL+"/search", "application/json",
		strings.NewReader(`{"query":[1,2,3],"epsilon":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want default \"1\"", resp.Header.Get("Retry-After"))
	}
	var ae apiError
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil || ae.Error == "" {
		t.Fatalf("429 body missing error envelope: %v", err)
	}
	<-srv.sem
}
