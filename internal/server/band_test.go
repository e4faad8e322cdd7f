package server

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	twsim "repro"
)

func newBandServer(t *testing.T, opts twsim.Options) *Client {
	t.Helper()
	db, err := twsim.OpenMem(opts)
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
	return NewClient(ts.URL, ts.Client())
}

func bandWalks(seed int64, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		s := make([]float64, 16)
		s[0] = rng.Float64() * 4
		for j := 1; j < len(s); j++ {
			s[j] = s[j-1] + rng.Float64()*0.4 - 0.2
		}
		out[i] = s
	}
	return out
}

// TestNegativeBandRejected400: a negative band half-width on /search or
// /knn is a client error — 400 with a named reason, never a query under an
// undefined distance.
func TestNegativeBandRejected400(t *testing.T) {
	c := newBandServer(t, twsim.Options{})
	if _, err := c.Add([]float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	// The typed client omits a negative band (it means "server default"), so
	// the hostile bodies go through the raw request helper.
	if err := c.do(http.MethodPost, "/search", map[string]any{"query": []float64{1, 2, 3}, "epsilon": 0.5, "band": -1}, nil); err == nil {
		t.Error("negative band on /search succeeded, want 400")
	} else if !strings.Contains(err.Error(), "negative band") || !strings.Contains(err.Error(), "400") {
		t.Errorf("negative band on /search: error %q, want a 400 naming the band", err)
	}
	if err := c.do(http.MethodPost, "/knn", map[string]any{"query": []float64{1, 2, 3}, "k": 2, "band": -5}, nil); err == nil {
		t.Error("negative band on /knn succeeded, want 400")
	} else if !strings.Contains(err.Error(), "negative band") || !strings.Contains(err.Error(), "400") {
		t.Errorf("negative band on /knn: error %q, want a 400 naming the band", err)
	}
}
