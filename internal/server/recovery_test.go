package server

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	twsim "repro"
)

// newStormServer is newTestServer plus direct access to the underlying
// database and the raw base URL, for tests that bypass the Client or check
// post-storm invariants.
func newStormServer(t *testing.T) (*twsim.DB, *Client, string) {
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
	return db, NewClient(ts.URL, ts.Client()), ts.URL
}

// Oversized request bodies must be rejected with 413 Request Entity Too
// Large, not a generic 400 (clients distinguish "shrink your batch" from
// "your JSON is malformed"). The body is read whole before it is decoded, so
// any body over the cap is 413 whatever its content, sent with a
// Content-Length or chunked.
func TestOversizedBodyReturns413(t *testing.T) {
	_, _, base := newStormServer(t)
	digits := strings.Repeat("9", MaxBodyBytes+16) // one number whose digits alone cross the cap
	cases := []struct {
		name, path, body string
		chunked          bool
	}{
		{"values", "/sequences", `{"values":[` + digits + `]}`, false},
		{"values-chunked", "/sequences", `{"values":[` + digits + `]}`, true},
		{"batch", "/sequences/batch", `{"sequences":[[` + digits + `]]}`, false},
		{"batch-chunked", "/sequences/batch", `{"sequences":[[` + digits + `]]}`, true},
		{"malformed", "/sequences", "x" + digits, false},
	}
	for _, tc := range cases {
		var body io.Reader = strings.NewReader(tc.body)
		if tc.chunked {
			body = io.MultiReader(body) // hides the length: the client sends it chunked
		}
		req, err := http.NewRequest(http.MethodPost, base+tc.path, body)
		if err != nil {
			t.Fatal(err)
		}
		if tc.chunked != (req.ContentLength <= 0) {
			t.Fatalf("%s: request Content-Length = %d", tc.name, req.ContentLength)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var ae apiError
		derr := json.NewDecoder(resp.Body).Decode(&ae)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status = %d, want %d", tc.name, resp.StatusCode, http.StatusRequestEntityTooLarge)
		}
		if derr != nil || ae.Error == "" {
			t.Fatalf("%s: error envelope = %+v, %v", tc.name, ae, derr)
		}
	}
	// A small malformed body is still a plain 400.
	resp2, err := http.Post(base+"/sequences", "application/json", strings.NewReader(`{"values":`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status = %d, want %d", resp2.StatusCode, http.StatusBadRequest)
	}
}

// Concurrent reads must stay correct while writers mutate the database —
// run with -race. After the storm the store and index must still agree.
func TestConcurrentReadsDuringWrites(t *testing.T) {
	db, c, _ := newStormServer(t)
	seedRng := rand.New(rand.NewSource(8))
	seed := make([][]float64, 40)
	for i := range seed {
		s := make([]float64, 8+seedRng.Intn(8))
		for j := range s {
			s[j] = float64(seedRng.Intn(30))
		}
		seed[i] = s
	}
	if _, err := c.AddBatch(seed); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	// Writers keep appending fresh sequences.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 25; i++ {
				s := make([]float64, 6+rng.Intn(10))
				for j := range s {
					s[j] = float64(rng.Intn(30))
				}
				if _, err := c.Add(s); err != nil {
					report(err)
					return
				}
			}
		}(int64(w))
	}
	// A deleter removes part of the seed data.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := uint32(0); id < 15; id++ {
			if _, err := c.Remove(id); err != nil {
				report(err)
				return
			}
		}
	}()
	// Searchers and getters read through the whole storm. Get may race
	// with the deleter, so not-found responses are expected; transport
	// failures are not.
	for rdr := 0; rdr < 3; rdr++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < 20; i++ {
				q := make([]float64, 5+rng.Intn(8))
				for j := range q {
					q[j] = float64(rng.Intn(30))
				}
				if _, err := c.Search(q, 2); err != nil {
					report(err)
					return
				}
				if _, err := c.NearestK(q, 3); err != nil {
					report(err)
					return
				}
				_, _ = c.Get(uint32(rng.Intn(40))) // may be deleted: error OK
			}
		}(int64(rdr))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("storm request failed: %v", err)
	}

	// After the storm: no store/index divergence.
	if err := db.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants after storm: %v", err)
	}
	if err := db.Verify(); err != nil {
		t.Fatalf("Verify after storm: %v", err)
	}
	if db.Len() != 40+2*25-15 {
		t.Fatalf("Len = %d after storm, want %d", db.Len(), 40+2*25-15)
	}
}

// /stats must expose the repair summary: whether the last Repair rebuilt
// the index, and nothing else — Open derives the index, so there is no
// per-entry reconciliation to count.
func TestStatsReportsRepair(t *testing.T) {
	_, _, base := newStormServer(t)
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Repair map[string]any `json:"repair"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Repair == nil {
		t.Fatal("/stats response is missing the repair section")
	}
	if len(out.Repair) != 2 || out.Repair["repaired"] != false || out.Repair["rebuilt"] != false {
		t.Fatalf("repair section = %v, want exactly repaired and rebuilt, both false", out.Repair)
	}
}
