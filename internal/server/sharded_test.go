package server

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	twsim "repro"
)

func newShardedTestServer(t *testing.T, shards int) (*twsim.ShardedDB, *Client, *httptest.Server) {
	t.Helper()
	db, err := twsim.OpenMemSharded(twsim.ShardedOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewBackend(db)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		db.Close()
	})
	return db, NewClient(ts.URL, ts.Client()), ts
}

func shardedWalks(seed int64, count, minLen, maxLen int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, count)
	for i := range out {
		n := minLen + rng.Intn(maxLen-minLen+1)
		s := make([]float64, n)
		s[0] = rng.Float64() * 10
		for j := 1; j < n; j++ {
			s[j] = s[j-1] + rng.Float64()*0.4 - 0.2
		}
		out[i] = s
	}
	return out
}

// TestShardedServerRoundTrip drives the unchanged JSON API against a
// sharded backend: batch insert (interleaved IDs), point get, search and
// knn agreeing with direct library calls, and delete.
func TestShardedServerRoundTrip(t *testing.T) {
	db, c, _ := newShardedTestServer(t, 4)
	data := shardedWalks(11, 50, 10, 30)
	ids, err := c.AddBatchIDs(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(data) {
		t.Fatalf("AddBatchIDs returned %d ids for %d sequences", len(ids), len(data))
	}
	for i, id := range ids {
		values, err := c.Get(id)
		if err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		if len(values) != len(data[i]) {
			t.Fatalf("sequence %d: got %d values, want %d", i, len(values), len(data[i]))
		}
	}
	q := data[7]
	res, err := c.Search(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Search(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != len(want.Matches) {
		t.Fatalf("HTTP search %d matches, library %d", len(res.Matches), len(want.Matches))
	}
	for i, m := range res.Matches {
		if twsim.ID(m.ID) != want.Matches[i].ID || m.Dist != want.Matches[i].Dist {
			t.Fatalf("match %d differs: wire (%d, %g), library (%d, %g)",
				i, m.ID, m.Dist, want.Matches[i].ID, want.Matches[i].Dist)
		}
	}
	knn, err := c.NearestK(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(knn) != 3 {
		t.Fatalf("knn returned %d matches", len(knn))
	}
	removed, err := c.Remove(ids[0])
	if err != nil || !removed {
		t.Fatalf("Remove = %v, %v", removed, err)
	}
	if _, err := c.Get(ids[0]); err == nil {
		t.Fatal("removed sequence still fetchable over HTTP")
	}
}

// TestShardedServerStats: /stats keeps the aggregate fields and adds the
// per-shard breakdown; the flat single-DB shape must stay shard-free.
func TestShardedServerStats(t *testing.T) {
	db, c, ts := newShardedTestServer(t, 3)
	data := shardedWalks(5, 31, 8, 16)
	if _, err := c.AddBatchIDs(data); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Sequences int `json:"sequences"`
		Shards    []struct {
			ID        int `json:"id"`
			Sequences int `json:"sequences"`
			Pages     int `json:"pages"`
			Repair    struct {
				Repaired bool `json:"repaired"`
			} `json:"repair"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Sequences != len(data) {
		t.Fatalf("stats.sequences = %d, want %d", stats.Sequences, len(data))
	}
	if len(stats.Shards) != db.NumShards() {
		t.Fatalf("stats lists %d shards, want %d", len(stats.Shards), db.NumShards())
	}
	total := 0
	for i, sh := range stats.Shards {
		if sh.ID != i {
			t.Fatalf("shard %d reported id %d", i, sh.ID)
		}
		if sh.Pages == 0 {
			t.Fatalf("shard %d reports zero index pages", i)
		}
		if sh.Repair.Repaired {
			t.Fatalf("fresh shard %d reports repair", i)
		}
		total += sh.Sequences
	}
	if total != len(data) {
		t.Fatalf("per-shard sequences sum to %d, want %d", total, len(data))
	}
}

// TestShardedServerFlatStatsForSingleDB pins the flat /stats shape of the
// unsharded backend (no "shards" key).
func TestShardedServerFlatStatsForSingleDB(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close(); db.Close() })
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["shards"]; ok {
		t.Fatal(`single-DB /stats grew a "shards" key`)
	}
}

// TestSubseqBuildRequests: /subseq/build on a single and a two-shard
// backend answers 201 with one window per record and fitting length for a
// step of math.MaxInt (the window loop used to overflow and panic), and
// 400 for a window length given twice (which used to return every match
// twice).
func TestSubseqBuildRequests(t *testing.T) {
	records := [][]float64{{1, 2, 3, 4, 5, 6}, {9, 8, 7, 6, 5, 4}}
	single, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sharded, err := twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 2, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	for name, b := range map[string]twsim.Backend{"single": single, "sharded": sharded} {
		t.Run(name, func(t *testing.T) {
			if _, err := b.AddBatch(records); err != nil {
				t.Fatal(err)
			}
			srv := NewBackend(b)
			defer srv.Close()
			ts := httptest.NewServer(srv)
			defer ts.Close()
			for _, c := range []struct {
				body       string
				wantStatus int
				wantBody   string
			}{
				{`{"window_lens":[3,5,7],"step":9223372036854775807}`, http.StatusCreated, `{"windows":4}`},
				{`{"window_lens":[3,3]}`, http.StatusBadRequest, ""},
				{`{"window_lens":[3,4,3],"step":2}`, http.StatusBadRequest, ""},
			} {
				resp, err := ts.Client().Post(ts.URL+"/subseq/build", "application/json", strings.NewReader(c.body))
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != c.wantStatus {
					t.Fatalf("%s: status %d (%s), want %d", c.body, resp.StatusCode, body, c.wantStatus)
				}
				if c.wantBody != "" && strings.TrimSpace(string(body)) != c.wantBody {
					t.Fatalf("%s: body %s, want %s", c.body, body, c.wantBody)
				}
			}
		})
	}
}

// TestShardedServerSubseq: the subsequence endpoints work on a sharded
// backend — per-shard window indexes fanned out and merged — and the
// matches agree (same windows, same distances) with a single-DB server
// built over the same logical contents. Searching before building still
// answers 409.
func TestShardedServerSubseq(t *testing.T) {
	_, c, ts := newShardedTestServer(t, 3)
	data := shardedWalks(23, 24, 16, 32)
	ids, err := c.AddBatchIDs(data)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/subseq/search", "application/json",
		strings.NewReader(`{"query":[1,2,3],"epsilon":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("subseq search before build returned %d, want %d", resp.StatusCode, http.StatusConflict)
	}

	windows, err := c.BuildSubseqIndex([]int{8}, 4)
	if err != nil {
		t.Fatalf("subseq build on sharded backend: %v", err)
	}
	if windows == 0 {
		t.Fatal("sharded subseq index reports zero windows")
	}

	// Single-DB oracle over the same logical contents.
	oracle, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	oracleIDs := make(map[uint32]uint32, len(ids)) // oracle ID -> sharded global ID
	for i, v := range data {
		oid, err := oracle.Add(v)
		if err != nil {
			t.Fatal(err)
		}
		oracleIDs[uint32(oid)] = ids[i]
	}
	oidx, err := oracle.BuildSubseqIndex([]int{8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer oidx.Close()
	if oidx.NumWindows() != windows {
		t.Fatalf("window count: sharded %d, single-DB %d", windows, oidx.NumWindows())
	}

	q := data[5][:8]
	got, err := c.SearchSubsequences(q, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := oidx.Search(q, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("sharded subseq search found nothing (query is an indexed window)")
	}
	if len(got) != len(wantRes.Matches) {
		t.Fatalf("sharded subseq %d matches, single-DB %d", len(got), len(wantRes.Matches))
	}
	// Distances may tie across windows, and tied matches sort by ID — an
	// ordering that differs across the two ID spaces. Compare as sets of
	// (source sequence, offset, len, dist) after translating oracle IDs.
	type key struct {
		id       uint32
		off, ln  int
		distBits uint64
	}
	want := make(map[key]int, len(wantRes.Matches))
	for _, m := range wantRes.Matches {
		want[key{oracleIDs[uint32(m.ID)], m.Offset, m.Len, uint64FromFloat(m.Dist)}]++
	}
	for _, m := range got {
		k := key{m.ID, m.Offset, m.Len, uint64FromFloat(m.Dist)}
		if want[k] == 0 {
			t.Fatalf("sharded match (%d, %d, %d, %g) absent from single-DB result", m.ID, m.Offset, m.Len, m.Dist)
		}
		want[k]--
	}
	// Non-decreasing distance order must hold on the merged result.
	for i := 1; i < len(got); i++ {
		if got[i].Dist < got[i-1].Dist {
			t.Fatalf("merged matches out of distance order at %d: %g < %g", i, got[i].Dist, got[i-1].Dist)
		}
	}
}

func uint64FromFloat(f float64) uint64 { return math.Float64bits(f) }

// TestShardedServerConcurrentWrites: POSTs land on different shards and
// proceed concurrently (under -race this exercises the per-shard locking
// path end-to-end through the HTTP stack).
func TestShardedServerConcurrentWrites(t *testing.T) {
	db, c, _ := newShardedTestServer(t, 4)
	const writers = 8
	const perWriter = 10
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			walks := shardedWalks(seed, perWriter, 8, 16)
			for _, v := range walks {
				if _, err := c.Add(v); err != nil {
					errs <- err
					return
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := db.Len(); got != writers*perWriter {
		t.Fatalf("Len = %d after %d concurrent adds", got, writers*perWriter)
	}
	if err := db.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSubseqBuildOverBudget: /subseq/build answers 400 naming the window
// count when the build is over core.MaxSubseqWindows, on a single and a
// sharded backend. Eight records of 1 000 elements and window lengths
// 1–800 at step 1 hold 3 843 200 windows; nothing that size is allocated.
func TestSubseqBuildOverBudget(t *testing.T) {
	records := make([][]float64, 8)
	for i := range records {
		records[i] = make([]float64, 1000)
		for j := range records[i] {
			records[i][j] = float64((i + j) % 11)
		}
	}
	lens := make([]string, 800)
	for i := range lens {
		lens[i] = strconv.Itoa(i + 1)
	}
	body := `{"window_lens":[` + strings.Join(lens, ",") + `],"step":1}`
	single, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sharded, err := twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 2, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	for name, b := range map[string]twsim.Backend{"single": single, "sharded": sharded} {
		t.Run(name, func(t *testing.T) {
			if _, err := b.AddBatch(records); err != nil {
				t.Fatal(err)
			}
			srv := NewBackend(b)
			defer srv.Close()
			ts := httptest.NewServer(srv)
			defer ts.Close()
			resp, err := ts.Client().Post(ts.URL+"/subseq/build", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(got), "3843200 windows") {
				t.Fatalf("status %d, body %s; want 400 naming 3843200 windows", resp.StatusCode, got)
			}
		})
	}
}
