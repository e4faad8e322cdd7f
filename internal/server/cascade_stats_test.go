package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	twsim "repro"
)

// postSearch drives POST /search through the raw HTTP stack and decodes the
// full wire response (the Client helper drops the stats).
func postSearch(t *testing.T, srv *Server, query []float64, epsilon float64) SearchResponse {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"query": query, "epsilon": epsilon})
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("POST", "/search", bytes.NewReader(body)))
	if w.Code != 200 {
		t.Fatalf("/search returned %d: %s", w.Code, w.Body.String())
	}
	var res SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

func getStats(t *testing.T, srv *Server) map[string]any {
	t.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/stats", nil))
	if w.Code != 200 {
		t.Fatalf("/stats returned %d: %s", w.Code, w.Body.String())
	}
	var out map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSearchResponseTierCounters: each /search reply carries the cascade's
// per-tier prune counters, and they partition the candidate count.
func TestSearchResponseTierCounters(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	t.Cleanup(func() { srv.Close(); db.Close() })
	data := shardedWalks(23, 60, 10, 30)
	if _, err := db.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	var sumCand, sumDTW int
	const queries = 3
	for i := 0; i < queries; i++ {
		res := postSearch(t, srv, data[i*7], 0.3)
		st := res.Stats
		pruned := st.LBPAAPruned + st.LBKeoghPruned + st.LBImprovedPruned + st.CorridorPruned
		if pruned+st.DTWCalls != st.Candidates {
			t.Fatalf("query %d: prunes %d + dtw %d != candidates %d", i, pruned, st.DTWCalls, st.Candidates)
		}
		if st.DTWAbandoned > st.DTWCalls {
			t.Fatalf("query %d: abandoned %d > calls %d", i, st.DTWAbandoned, st.DTWCalls)
		}
		sumCand += st.Candidates
		sumDTW += st.DTWCalls
	}
	// /stats accumulates the same counters across queries.
	totals, ok := getStats(t, srv)["query_totals"].(map[string]any)
	if !ok {
		t.Fatal(`/stats has no "query_totals" object`)
	}
	asInt := func(key string) int {
		v, ok := totals[key].(float64)
		if !ok {
			t.Fatalf("query_totals.%s missing or non-numeric", key)
		}
		return int(v)
	}
	if got := asInt("searches"); got != queries {
		t.Errorf("query_totals.searches = %d, want %d", got, queries)
	}
	if got := asInt("candidates"); got != sumCand {
		t.Errorf("query_totals.candidates = %d, want %d", got, sumCand)
	}
	if got := asInt("dtw_calls"); got != sumDTW {
		t.Errorf("query_totals.dtw_calls = %d, want %d", got, sumDTW)
	}
	for _, key := range []string{"lb_paa_pruned", "lb_keogh_pruned", "lb_improved_pruned", "corridor_pruned", "dtw_abandoned"} {
		asInt(key) // presence check
	}
}

// TestShardedStatsQueryBreakdown: with a sharded backend, /stats reports
// each shard's cumulative query counters alongside the flat totals.
func TestShardedStatsQueryBreakdown(t *testing.T) {
	db, err := twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewBackend(db)
	t.Cleanup(func() { srv.Close(); db.Close() })
	data := shardedWalks(29, 45, 10, 25)
	if _, err := db.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	const queries = 4
	for i := 0; i < queries; i++ {
		postSearch(t, srv, data[i*3], 0.4)
	}
	stats := getStats(t, srv)
	shards, ok := stats["shards"].([]any)
	if !ok || len(shards) != 3 {
		t.Fatalf("/stats shards = %v", stats["shards"])
	}
	for i, raw := range shards {
		sh := raw.(map[string]any)
		q, ok := sh["queries"].(map[string]any)
		if !ok {
			t.Fatalf("shard %d has no queries breakdown", i)
		}
		if got := q["searches"].(float64); int(got) != queries {
			t.Errorf("shard %d searches = %v, want %d", i, got, queries)
		}
		cand := q["candidates"].(float64)
		dtw := q["dtw_calls"].(float64)
		pruned := q["lb_paa_pruned"].(float64) + q["lb_keogh_pruned"].(float64) +
			q["lb_improved_pruned"].(float64) + q["corridor_pruned"].(float64)
		if pruned+dtw != cand {
			t.Errorf("shard %d: prunes %v + dtw %v != candidates %v", i, pruned, dtw, cand)
		}
	}
	if _, ok := stats["query_totals"].(map[string]any); !ok {
		t.Error(`sharded /stats lost the flat "query_totals"`)
	}
}
