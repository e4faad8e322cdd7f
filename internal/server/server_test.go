package server

import (
	"encoding/json"
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
