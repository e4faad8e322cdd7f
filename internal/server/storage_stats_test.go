package server

import (
	"net/http/httptest"
	"testing"

	twsim "repro"
)

// TestStatsStorageSection: /stats exposes the storage-layer counters — the
// data pool, and no sequence cache — with a hit ratio a monitor can alert on
// directly.
func TestStatsStorageSection(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	t.Cleanup(func() { srv.Close(); db.Close() })
	data := shardedWalks(29, 50, 10, 30)
	if _, err := db.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	// Two identical searches: the second runs against warm pools, so the
	// pool's hit ratio must end up strictly positive. Reads by ID go to the
	// heap the same way.
	postSearch(t, srv, data[0], 0.4)
	postSearch(t, srv, data[0], 0.4)
	for i := 0; i < 2; i++ {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("GET", "/sequences/0", nil))
		if w.Code != 200 {
			t.Fatalf("GET /sequences/0 returned %d: %s", w.Code, w.Body.String())
		}
	}

	stats := getStats(t, srv)
	storage, ok := stats["storage"].(map[string]any)
	if !ok {
		t.Fatalf(`/stats has no "storage" object: %v`, stats)
	}
	p, ok := storage["data_pool"].(map[string]any)
	if !ok {
		t.Fatalf(`storage has no "data_pool" object: %v`, storage)
	}
	if reads, _ := p["reads"].(float64); reads <= 0 {
		t.Errorf("data_pool.reads = %v, want > 0", p["reads"])
	}
	if ratio, _ := p["hit_ratio"].(float64); ratio <= 0 || ratio > 1 {
		t.Errorf("data_pool.hit_ratio = %v, want in (0, 1]", p["hit_ratio"])
	}
	if _, ok := storage["index_pool"]; ok {
		t.Error(`storage still reports an "index_pool": the index has no pool`)
	}
	if _, ok := storage["seq_cache"]; ok {
		t.Error(`storage still reports a "seq_cache": there is no sequence cache`)
	}
}

// TestStatsStorageSharded: the sharded backend aggregates storage counters
// across shards in the same /stats section.
func TestStatsStorageSharded(t *testing.T) {
	db, err := twsim.OpenMemSharded(twsim.ShardedOptions{
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewBackend(db)
	t.Cleanup(func() { srv.Close(); db.Close() })
	data := shardedWalks(31, 60, 10, 30)
	if _, err := db.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	postSearch(t, srv, data[0], 0.4)
	postSearch(t, srv, data[0], 0.4)

	stats := getStats(t, srv)
	storage, ok := stats["storage"].(map[string]any)
	if !ok {
		t.Fatalf(`sharded /stats has no "storage" object: %v`, stats)
	}
	p, ok := storage["data_pool"].(map[string]any)
	if !ok {
		t.Fatalf("storage has no data_pool: %v", storage)
	}
	if reads, _ := p["reads"].(float64); reads <= 0 {
		t.Errorf("aggregated data_pool.reads = %v, want > 0", p["reads"])
	}
	if _, ok := storage["seq_cache"]; ok {
		t.Error(`sharded storage still reports a "seq_cache"`)
	}
}
