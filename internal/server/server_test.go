package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	twsim "repro"
)

func newTestServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		db.Close()
	})
	return srv, NewClient(ts.URL, ts.Client())
}

func TestHealthAndStats(t *testing.T) {
	_, c := newTestServer(t)
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
	n, bytes, pages, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || bytes != 0 || pages == 0 {
		t.Errorf("fresh stats = %d, %d, %d", n, bytes, pages)
	}
}

func TestAddGetSearchRoundTrip(t *testing.T) {
	_, c := newTestServer(t)
	s := []float64{20, 21, 21, 20, 20, 23, 23, 23}
	id, err := c.Add(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s) {
		t.Fatalf("Get = %v", got)
	}
	res, err := c.Search([]float64{20, 20, 21, 20, 23}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0].ID != id || res.Matches[0].Dist != 0 {
		t.Fatalf("Search = %+v", res)
	}
	if res.Stats.Results != 1 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestBatchKNNRemove(t *testing.T) {
	_, c := newTestServer(t)
	rng := rand.New(rand.NewSource(1))
	batch := make([][]float64, 30)
	for i := range batch {
		s := make([]float64, 10+rng.Intn(10))
		s[0] = rng.Float64() * 10
		for j := 1; j < len(s); j++ {
			s[j] = s[j-1] + rng.Float64()*0.2 - 0.1
		}
		batch[i] = s
	}
	first, err := c.AddBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 {
		t.Errorf("first id = %d", first)
	}
	nn, err := c.NearestK(batch[7], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 3 || nn[0].ID != 7 || nn[0].Dist != 0 {
		t.Fatalf("NearestK = %+v", nn)
	}
	removed, err := c.Remove(7)
	if err != nil || !removed {
		t.Fatalf("Remove = %v, %v", removed, err)
	}
	removed, err = c.Remove(7)
	if err != nil || removed {
		t.Fatalf("second Remove = %v, %v", removed, err)
	}
	if _, err := c.Get(7); err == nil {
		t.Error("Get of removed id succeeded")
	}
	n, _, _, err := c.Stats()
	if err != nil || n != 29 {
		t.Errorf("Stats after remove = %d, %v", n, err)
	}
}

func TestSubseqEndpoints(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.SearchSubsequences([]float64{1, 2}, 1); err == nil {
		t.Error("subseq search before build succeeded")
	}
	if _, err := c.Add([]float64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	windows, err := c.BuildSubseqIndex([]int{3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if windows != 6 {
		t.Errorf("windows = %d, want 6", windows)
	}
	matches, err := c.SearchSubsequences([]float64{3, 4, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Offset != 2 || matches[0].Len != 3 {
		t.Fatalf("subseq matches = %+v", matches)
	}
}

func TestErrorPaths(t *testing.T) {
	_, c := newTestServer(t)
	// Empty sequence rejected.
	if _, err := c.Add(nil); err == nil {
		t.Error("Add(nil) succeeded")
	}
	// Negative epsilon rejected.
	if _, err := c.Add([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search([]float64{1}, -1); err == nil {
		t.Error("negative epsilon accepted")
	}
	// Unknown id.
	if _, err := c.Get(99); err == nil {
		t.Error("Get(99) succeeded")
	}
	// Negative k.
	if _, err := c.NearestK([]float64{1}, -1); err == nil {
		t.Error("negative k accepted")
	}
}

func TestHTTPLevelValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Wrong method.
	resp, err := http.Get(ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /search = %d", resp.StatusCode)
	}
	// Malformed JSON.
	resp, err = http.Post(ts.URL+"/search", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d", resp.StatusCode)
	}
	// Unknown field.
	resp, err = http.Post(ts.URL+"/search", "application/json",
		strings.NewReader(`{"query":[1],"epsilon":1,"bogus":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field = %d", resp.StatusCode)
	}
	// Trailing garbage.
	resp, err = http.Post(ts.URL+"/search", "application/json",
		strings.NewReader(`{"query":[1],"epsilon":1}{"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing garbage = %d", resp.StatusCode)
	}
	// Bad id in path.
	resp, err = http.Get(ts.URL + "/sequences/notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id = %d", resp.StatusCode)
	}
}

// TestKNNHugeK: a 40-byte /knn body naming a k of 2^40 under a band used to
// abort the whole process (the k-NN upper-bound tracker pre-allocated k
// slots). It must answer 200 with every stored sequence and leave the
// server serving.
func TestKNNHugeK(t *testing.T) {
	srv, c := newTestServer(t)
	for i := 0; i < 10; i++ {
		if _, err := c.Add([]float64{float64(i), float64(i) + 1, float64(i) + 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/knn",
		strings.NewReader(`{"query":[1],"k":1099511627776,"band":1}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /knn with k=2^40: status %d, body %s", rec.Code, rec.Body)
	}
	var out SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if want := srv.backend.Len(); len(out.Matches) != want {
		t.Fatalf("k=2^40 returned %d matches, want all %d", len(out.Matches), want)
	}
	for i := 1; i < len(out.Matches); i++ {
		if out.Matches[i].Dist < out.Matches[i-1].Dist {
			t.Fatalf("matches not ascending at rank %d: %+v", i, out.Matches)
		}
	}
	if err := c.Health(); err != nil {
		t.Fatalf("server did not survive the query: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, c := newTestServer(t)
	rng := rand.New(rand.NewSource(2))
	seed := make([][]float64, 50)
	for i := range seed {
		s := make([]float64, 12)
		s[0] = rng.Float64() * 10
		for j := 1; j < len(s); j++ {
			s[j] = s[j-1] + rng.Float64()*0.2 - 0.1
		}
		seed[i] = s
	}
	if _, err := c.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 12)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch (g + i) % 3 {
				case 0:
					if _, err := c.Search(seed[(g*7+i)%50], 0.5); err != nil {
						errCh <- err
						return
					}
				case 1:
					if _, err := c.NearestK(seed[(g*3+i)%50], 2); err != nil {
						errCh <- err
						return
					}
				default:
					if _, err := c.Add(seed[(g+i)%50]); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	n, _, _, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n <= 50 {
		t.Errorf("concurrent adds lost: %d sequences", n)
	}
}

// TestDistNeverNegativeZeroOnTheWire: a stored [-0, -0] against the query
// [0, 0] is at distance |−0 − 0| = +0, and must be encoded as "dist":0 —
// the kernels' old branchy abs left −0 alone and the reply said "dist":-0.
func TestDistNeverNegativeZeroOnTheWire(t *testing.T) {
	srv, _ := newTestServer(t)
	post := func(path, body string) string {
		t.Helper()
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
		if w.Code != http.StatusOK && w.Code != http.StatusCreated {
			t.Fatalf("POST %s returned %d: %s", path, w.Code, w.Body.String())
		}
		return w.Body.String()
	}
	post("/sequences", `{"values":[-0,-0]}`)
	for path, body := range map[string]string{
		"/search": `{"query":[0,0],"epsilon":0}`,
		"/knn":    `{"query":[0,0],"k":1}`,
	} {
		reply := post(path, body)
		if !strings.Contains(reply, `"dist":0`) || strings.Contains(reply, "-0") {
			t.Errorf("POST %s: reply %s, want one match at \"dist\":0", path, reply)
		}
	}
}

// TestAddAllAfterRemovingEverything: once every record is removed, the
// index still holds their unmerged tombstones, and a batch must go into its
// delta — not into a bulk load that refuses a non-empty index. On a DB (WAL
// off and on), on a 2-shard ShardedDB and through /sequences/batch.
func TestAddAllAfterRemovingEverything(t *testing.T) {
	opens := map[string]func(t *testing.T) twsim.Backend{
		"db": func(t *testing.T) twsim.Backend {
			db, err := twsim.OpenMem(twsim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return db
		},
		"db-wal": func(t *testing.T) twsim.Backend {
			db, err := twsim.Create(t.TempDir(), twsim.Options{WAL: true})
			if err != nil {
				t.Fatal(err)
			}
			return db
		},
		"sharded": func(t *testing.T) twsim.Backend {
			db, err := twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			return db
		},
	}
	first := [][]float64{{1, 2, 3}, {4, 5, 6}}
	added := []float64{7, 8, 9, 8}
	// found checks that a range search at ε 0 finds exactly the new record
	// and that the backend verifies.
	found := func(t *testing.T, b twsim.Backend, id twsim.ID) {
		t.Helper()
		res, err := b.SearchCtx(context.Background(), added, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 1 || res.Matches[0].ID != id {
			t.Fatalf("search at ε 0 = %+v, want record %d", res.Matches, id)
		}
		if err := b.Verify(); err != nil {
			t.Fatalf("Verify: %v", err)
		}
	}
	for name, open := range opens {
		t.Run(name, func(t *testing.T) {
			b := open(t)
			defer b.Close()
			ids, err := b.AddBatch(first)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				if ok, err := b.Remove(id); !ok || err != nil {
					t.Fatalf("Remove(%d) = %v, %v", id, ok, err)
				}
			}
			got, err := b.AddBatch([][]float64{added})
			if err != nil {
				t.Fatalf("AddBatch after removing everything: %v", err)
			}
			found(t, b, got[0])
		})
		t.Run(name+"/http", func(t *testing.T) {
			b := open(t)
			srv := NewBackend(b)
			ts := httptest.NewServer(srv)
			defer func() {
				ts.Close()
				srv.Close()
				b.Close()
			}()
			c := NewClient(ts.URL, ts.Client())
			ids, err := c.AddBatchIDs(first)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				if ok, err := c.Remove(id); !ok || err != nil {
					t.Fatalf("DELETE /sequences/%d = %v, %v", id, ok, err)
				}
			}
			resp, err := ts.Client().Post(ts.URL+"/sequences/batch", "application/json",
				strings.NewReader(`{"sequences": [[7, 8, 9, 8]]}`))
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				IDs []twsim.ID `json:"ids"`
			}
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated || err != nil || len(out.IDs) != 1 {
				t.Fatalf("POST /sequences/batch after removing everything: %s, ids %v, %v", resp.Status, out.IDs, err)
			}
			found(t, b, out.IDs[0])
		})
	}
}

// failingWrites is a backend whose heap refuses every write with an I/O
// error; everything else is the wrapped backend's.
type failingWrites struct{ twsim.Backend }

var errDiskFull = errors.New("seqdb: write data.twp: no space left on device")

func (failingWrites) Add([]float64) (twsim.ID, error)          { return 0, errDiskFull }
func (failingWrites) AddBatch([][]float64) ([]twsim.ID, error) { return nil, errDiskFull }

// TestWriteStatusSeparatesInputFromStorage: a write refused for its input
// (non-finite, empty sequence, empty batch) answers 400; one the storage
// failed answers 500, since the request itself was fine. JSON cannot carry
// a non-finite value, so that error is checked on errorStatus directly.
func TestWriteStatusSeparatesInputFromStorage(t *testing.T) {
	if got := errorStatus(fmt.Errorf("twsim: batch sequence 3: %w", twsim.ErrNonFinite)); got != http.StatusBadRequest {
		t.Fatalf("errorStatus(ErrNonFinite) = %d, want 400", got)
	}
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, tc := range []struct {
		name    string
		backend twsim.Backend
		path    string
		body    string
		want    int
	}{
		{"empty", db, "/sequences", `{"values": []}`, http.StatusBadRequest},
		{"empty-batch", db, "/sequences/batch", `{"sequences": []}`, http.StatusBadRequest},
		{"empty-in-batch", db, "/sequences/batch", `{"sequences": [[1], []]}`, http.StatusBadRequest},
		{"io", failingWrites{db}, "/sequences", `{"values": [1, 2]}`, http.StatusInternalServerError},
		{"io-batch", failingWrites{db}, "/sequences/batch", `{"sequences": [[1, 2]]}`, http.StatusInternalServerError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewBackend(tc.backend)
			defer srv.Close()
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
			if rec.Code != tc.want {
				t.Fatalf("POST %s %s = %d %s, want %d", tc.path, tc.body, rec.Code, rec.Body, tc.want)
			}
		})
	}
}

// failingReads is a backend whose heap fails every query's read with an I/O
// error; everything else is the wrapped backend's.
type failingReads struct{ twsim.Backend }

var errReadFailed = errors.New("seqdb: read data.twp: input/output error")

func (failingReads) SearchCtx(context.Context, []float64, float64, int) (*twsim.Result, error) {
	return nil, errReadFailed
}

func (failingReads) NearestKCtx(context.Context, []float64, int, int) (*twsim.Result, error) {
	return nil, errReadFailed
}

// TestQueryStatusSeparatesInputFromStorage: a query refused for its input
// (empty, a negative tolerance) answers 400; one the storage failed answers
// 500 and counts in the endpoint's 5xx series.
func TestQueryStatusSeparatesInputFromStorage(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Add([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		backend  twsim.Backend
		endpoint string
		body     string
		want     int
	}{
		{"empty", db, "search", `{"query": [], "epsilon": 1}`, http.StatusBadRequest},
		{"empty-knn", db, "knn", `{"query": [], "k": 1}`, http.StatusBadRequest},
		{"negative-epsilon", db, "search", `{"query": [1, 2], "epsilon": -0.5}`, http.StatusBadRequest},
		{"io", failingReads{db}, "search", `{"query": [1, 2], "epsilon": 1}`, http.StatusInternalServerError},
		{"io-knn", failingReads{db}, "knn", `{"query": [1, 2], "k": 1}`, http.StatusInternalServerError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewBackend(tc.backend)
			defer srv.Close()
			ts := httptest.NewServer(srv)
			defer ts.Close()
			resp, err := ts.Client().Post(ts.URL+"/"+tc.endpoint, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("POST /%s %s = %s, want %d", tc.endpoint, tc.body, resp.Status, tc.want)
			}
			class := fmt.Sprintf("%dxx", tc.want/100)
			if got := mustValue(t, scrape(t, ts), "twsim_http_requests_total",
				map[string]string{"endpoint": tc.endpoint, "code": class}); got != 1 {
				t.Fatalf("%s %s counter = %g, want 1", tc.endpoint, class, got)
			}
		})
	}
}
