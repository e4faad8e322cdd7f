package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	twsim "repro"
)

// stubBackend is an in-memory database whose subsequence build and range
// search a test replaces; it counts the builds that reach it.
type stubBackend struct {
	twsim.Backend
	builds atomic.Int64
	build  func(windowLens []int, step int) (*twsim.SubseqIndex, error)
	search func(ctx context.Context, q []float64, eps float64, band int) (*twsim.Result, error)
}

func newStubBackend(t *testing.T) *stubBackend {
	t.Helper()
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return &stubBackend{Backend: db, build: db.BuildSubseqIndex, search: db.SearchCtx}
}

func (b *stubBackend) BuildSubseqIndex(windowLens []int, step int) (*twsim.SubseqIndex, error) {
	b.builds.Add(1)
	return b.build(windowLens, step)
}

func (b *stubBackend) SearchCtx(ctx context.Context, q []float64, eps float64, band int) (*twsim.Result, error) {
	return b.search(ctx, q, eps, band)
}

func postSubseqBuild(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/subseq/build", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(got)
}

// TestSubseqBuildStorageFailure: a build that fails while it reads the heap
// answers 500, not the 400 of a build no database accepts, which a window
// length given twice still gets.
func TestSubseqBuildStorageFailure(t *testing.T) {
	b := newStubBackend(t)
	if _, err := b.AddBatch([][]float64{{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	realBuild := b.build
	b.build = func(windowLens []int, step int) (*twsim.SubseqIndex, error) {
		if len(windowLens) == 1 {
			return nil, fmt.Errorf("seqdb: reading page 7: %w", syscall.EIO)
		}
		return realBuild(windowLens, step)
	}
	srv := NewBackend(b)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if status, body := postSubseqBuild(t, ts, `{"window_lens":[3]}`); status != http.StatusInternalServerError {
		t.Fatalf("a build whose heap read failed answered %d (%s), want 500", status, body)
	}
	if status, body := postSubseqBuild(t, ts, `{"window_lens":[3,3]}`); status != http.StatusBadRequest {
		t.Fatalf("a build with a repeated window length answered %d (%s), want 400", status, body)
	}
}

// TestSubseqBuildAdmission: with one execution slot, no queue and the slot
// held by a range query parked inside the backend, a build is shed with 429
// before it reaches the backend; once the query returns, a build runs.
func TestSubseqBuildAdmission(t *testing.T) {
	b := newStubBackend(t)
	if _, err := b.AddBatch([][]float64{{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	realSearch := b.search
	b.search = func(ctx context.Context, q []float64, eps float64, band int) (*twsim.Result, error) {
		close(parked)
		<-release
		return realSearch(ctx, q, eps, band)
	}
	srv := NewBackendLimits(b, Limits{MaxInflight: 1, QueueDepth: 0})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	defer unpark() // before ts.Close, which waits for the parked handler
	c := NewClient(ts.URL, ts.Client())
	done := make(chan error, 1)
	go func() {
		_, err := c.Search([]float64{1, 2, 3, 4}, 0.1)
		done <- err
	}()
	<-parked
	status, body := postSubseqBuild(t, ts, `{"window_lens":[3]}`)
	unpark()
	if err := <-done; err != nil {
		t.Fatalf("the parked query: %v", err)
	}
	if status != http.StatusTooManyRequests {
		t.Fatalf("a build with the only slot held answered %d (%s), want 429", status, body)
	}
	if n := b.builds.Load(); n != 0 {
		t.Fatalf("the shed build reached the backend %d times", n)
	}
	if status, body := postSubseqBuild(t, ts, `{"window_lens":[3]}`); status != http.StatusCreated {
		t.Fatalf("a build with the slot free answered %d (%s), want 201", status, body)
	}
}
