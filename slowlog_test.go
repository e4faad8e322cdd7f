package twsim_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"strings"
	"sync"
	"testing"

	twsim "repro"
)

// syncBuffer is a goroutine-safe bytes.Buffer: the sharded engine may log
// from fan-out paths.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func seedSlowLogDB(t *testing.T, db twsim.Backend) {
	t.Helper()
	for i := 0; i < 16; i++ {
		base := float64(i % 4)
		if _, err := db.Add([]float64{base, base + 1, base + 2, base + 1}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSlowQueryLog: with a 1ns threshold every query logs one flat
// key=value line whose request_id matches the RequestID stamped on the
// returned Result, for range searches and k-NN, on both engines.
func TestSlowQueryLog(t *testing.T) {
	engines := []struct {
		name string
		open func(t *testing.T, o twsim.Options) twsim.Backend
	}{
		{"single", func(t *testing.T, o twsim.Options) twsim.Backend {
			db, err := twsim.OpenMem(o)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		}},
		{"sharded", func(t *testing.T, o twsim.Options) twsim.Backend {
			db, err := twsim.OpenMemSharded(twsim.ShardedOptions{Options: o, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		}},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			var buf syncBuffer
			db := eng.open(t, twsim.Options{
				SlowQueryThreshold: 1, // 1ns: every query is "slow"
				SlowQueryLogger:    log.New(&buf, "", 0),
			})
			seedSlowLogDB(t, db)
			q := []float64{1, 2, 3, 2}

			ctx := context.Background()
			res, err := db.SearchCtx(ctx, q, 0.5, 0)
			if err != nil {
				t.Fatal(err)
			}
			knn, err := db.NearestKCtx(ctx, q, 3, 0)
			if err != nil {
				t.Fatal(err)
			}

			out := buf.String()
			wantLines := []struct {
				kind  string
				reqID uint64
				param string
			}{
				{"search", res.RequestID, "epsilon=0.5"},
				{"knn", knn.RequestID, "k=3"},
			}
			for _, w := range wantLines {
				if w.reqID == 0 {
					t.Errorf("kind=%s: Result.RequestID not stamped", w.kind)
					continue
				}
				needle := fmt.Sprintf("kind=%s request_id=%d", w.kind, w.reqID)
				line := ""
				for _, l := range strings.Split(out, "\n") {
					if strings.Contains(l, needle) {
						line = l
						break
					}
				}
				if line == "" {
					t.Errorf("no slow-query line %q in log:\n%s", needle, out)
					continue
				}
				for _, key := range []string{"twsim: slow query", "qlen=4", w.param, "wall=", "filter=", "refine=", "candidates=", "results=", "dtw=", "pruned_paa=", "pruned_keogh=", "pruned_corridor="} {
					if !strings.Contains(line, key) {
						t.Errorf("slow-query line missing %q: %s", key, line)
					}
				}
				if strings.Contains(line, "pruned_improved=") {
					t.Errorf("slow-query line still reports the deleted LB_Improved tier: %s", line)
				}
			}
			// IDs are unique per query.
			seen := map[uint64]bool{}
			for _, id := range []uint64{res.RequestID, knn.RequestID} {
				if seen[id] {
					t.Errorf("request_id %d reused across queries", id)
				}
				seen[id] = true
			}
		})
	}
}

// TestSlowQueryLogDisabled: the zero threshold (the default) logs nothing,
// but results still carry request IDs.
func TestSlowQueryLogDisabled(t *testing.T) {
	var buf syncBuffer
	db, err := twsim.OpenMem(twsim.Options{SlowQueryLogger: log.New(&buf, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	seedSlowLogDB(t, db)
	res, err := db.Search([]float64{1, 2, 3, 2}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); out != "" {
		t.Errorf("threshold 0 logged:\n%s", out)
	}
	if res.RequestID == 0 {
		t.Error("RequestID not stamped when the slow-query log is disabled")
	}
}
