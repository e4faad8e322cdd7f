package twsim_test

import (
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	twsim "repro"
	"repro/internal/benchkit"
	"repro/internal/seq"
	"repro/internal/synth"
)

var updateCounts = flag.Bool("update-counts", false, "rewrite testdata/counts.json from this tree's counts")

// fenceCounts are one workload's query work summed over its op list. Every
// field is a count the serial cascade fixes exactly, so a change that moves
// one (a tier that prunes one candidate fewer, a walk that pushes one node
// more) fails TestCountFence by name.
type fenceCounts struct {
	Queries           int
	Candidates        int
	Results           int
	LBPAAPruned       int
	LBKeoghPruned     int
	CorridorPruned    int
	DTWCalls          int
	DTWAbandoned      int
	KNNFrontierPushes int
	KNNRepushes       int
	KNNEnvCutoffs     int
}

func (c *fenceCounts) add(s twsim.QueryStats) {
	c.Queries++
	c.Candidates += s.Candidates
	c.Results += s.Results
	c.LBPAAPruned += s.LBPAAPruned
	c.LBKeoghPruned += s.LBKeoghPruned
	c.CorridorPruned += s.CorridorPruned
	c.DTWCalls += s.DTWCalls
	c.DTWAbandoned += s.DTWAbandoned
	c.KNNFrontierPushes += s.KNNFrontierPushes
	c.KNNRepushes += s.KNNRepushes
	c.KNNEnvCutoffs += s.KNNEnvCutoffs
}

// fenceWorkload runs one cmd/bench workload shape in process at 10 000
// sequences: the benchmark's corpus generator and op list (seed 7, the op
// count of a 12-second run), loaded with 100 AddBatch calls into an on-disk
// database at default Options, and every query op answered through the
// public SearchCtx / NearestKCtx doors. The database is reopened before the
// queries: the load's delta merges run in the background at times the
// scheduler picks, and the k-NN walk's counts follow the delta's size, while
// Open derives the index as one bulk-loaded slab with no delta.
func fenceWorkload(t *testing.T, name string) fenceCounts {
	const n, seed, seconds, batches = 10_000, 7, 12, 100
	w, ok := benchkit.WorkloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	rng := rand.New(rand.NewSource(seed))
	var data []seq.Sequence
	if w.EqualLength {
		data = synth.RandomWalkSet(rng, n, 128)
	} else {
		data = synth.RandomWalkSetVaryLen(rng, n, 64, 192)
	}
	list := benchkit.GenOps(seed+1, data, w.Mix, w.OpsPerPass(seconds))

	dir := filepath.Join(t.TempDir(), "db")
	db, err := twsim.Create(dir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	per := n / batches
	for lo := 0; lo < n; lo += per {
		batch := make([][]float64, per)
		for i := range batch {
			batch[i] = data[lo+i]
		}
		if _, err := db.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = twsim.Open(dir, twsim.Options{}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var c fenceCounts
	ctx := context.Background()
	for _, op := range list.Ops {
		if !op.Kind.IsQuery() {
			t.Fatalf("%s: op %v is not a query; the fence replays read-only workloads", name, op.Kind)
		}
		q := list.Queries[op.Query]
		var res *twsim.Result
		if op.Kind == benchkit.KindKNN {
			res, err = db.NearestKCtx(ctx, q, list.K, list.Band)
		} else {
			res, err = db.SearchCtx(ctx, q, list.Epsilon, list.Band)
		}
		if err != nil {
			t.Fatal(err)
		}
		c.add(res.Stats)
	}
	return c
}

// TestCountFence pins the query work of the two read-only benchmark shapes
// (range_unbanded, knn_banded) to the committed testdata/counts.json:
// candidates, results, every cascade tier's prunes, DP calls and the k-NN
// walk's frontier counters, summed exactly. A refactor of the query path
// that claims "same answers, same work" must leave every number in place;
// one that changes the work on purpose regenerates the file with
// `go test -run TestCountFence -update-counts .` and says why.
func TestCountFence(t *testing.T) {
	golden := filepath.Join("testdata", "counts.json")
	got := map[string]fenceCounts{}
	for _, name := range []string{"range_unbanded", "knn_banded"} {
		got[name] = fenceWorkload(t, name)
	}
	if *updateCounts {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]fenceCounts
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden counts in %s", name, golden)
			continue
		}
		gv, wv := reflect.ValueOf(g), reflect.ValueOf(w)
		for i := 0; i < gv.NumField(); i++ {
			if gv.Field(i).Int() != wv.Field(i).Int() {
				t.Errorf("%s: %s = %d, golden %d", name, gv.Type().Field(i).Name, gv.Field(i).Int(), wv.Field(i).Int())
			}
		}
	}
}
