package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	twsim "repro"
)

// TestSearchOnCorruptHeapPageIs500: a query whose candidates sit on a heap
// page that fails its checksum has no answer — leaving those candidates out
// would be a false dismissal — so /search and /knn say 500 and name the
// page, never 200 with fewer matches, and a query that needs none of the
// damaged page's records still answers.
func TestSearchOnCorruptHeapPageIs500(t *testing.T) {
	dir := t.TempDir()
	db, err := twsim.Create(dir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := shardedWalks(41, 200, 100, 100) // 804-byte records: about 1.3 to a 1 KB page
	if _, err := db.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	const victim = 50 // 1020 payload bytes a page: records 63 and 64 touch page 50
	path := filepath.Join(dir, "data.twp")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[16+victim*1024+300] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err = twsim.Open(dir, twsim.Options{}); err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	t.Cleanup(func() { srv.Close(); db.Close() })

	post := func(path string, body map[string]any) *httptest.ResponseRecorder {
		raw, _ := json.Marshal(body)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(raw)))
		return w
	}
	for path, body := range map[string]map[string]any{
		"/search": {"query": data[63], "epsilon": 0.05},
		"/knn":    {"query": data[63], "k": 1},
	} {
		w := post(path, body)
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("%s for a sequence on the damaged page: status %d, want 500: %s", path, w.Code, w.Body.String())
		}
		if !strings.Contains(w.Body.String(), "checksum mismatch (page 50)") {
			t.Fatalf("%s: the error does not name the page: %s", path, w.Body.String())
		}
	}
	if w := post("/search", map[string]any{"query": data[5], "epsilon": 0}); w.Code != http.StatusOK {
		t.Fatalf("/search for a sequence on intact pages: status %d: %s", w.Code, w.Body.String())
	}
	// A read by ID goes through the same fetch: the damaged page is a storage
	// failure (500), not "not found" (404, which stays for absent IDs).
	get := func(id int) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("GET", fmt.Sprintf("/sequences/%d", id), nil))
		return w
	}
	if w := get(63); w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "checksum mismatch (page 50)") {
		t.Fatalf("GET of a sequence on the damaged page: status %d, want 500 naming page 50: %s", w.Code, w.Body.String())
	}
	if w := get(5); w.Code != http.StatusOK {
		t.Fatalf("GET of a sequence on intact pages: status %d: %s", w.Code, w.Body.String())
	}
	if w := get(len(data)); w.Code != http.StatusNotFound {
		t.Fatalf("GET of an ID never stored: status %d, want 404: %s", w.Code, w.Body.String())
	}
}
