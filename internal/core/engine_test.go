package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/seq"
	"repro/internal/seqdb"
	"repro/internal/synth"
)

// TestFlatEngineOracle: the flat index a database serves from must answer
// bit-identically to the paper's R-tree (FeatureIndex) for Search and
// NearestK — across all three bases, serial and parallel refinement, and
// unbanded plus banded queries — over the same heap, the same envelope
// store and the same entries: first a bulk-loaded snapshot, then with delta
// adds and tombstones on top of it.
//
// The engines walk different structures but answer from the same closed
// query rect and the same refinement cascade, so the match sets — unique by
// (Dist, ID) with overwhelming probability on random walks — must agree
// exactly, and so must the range candidates. With one refine worker nothing
// reads a momentarily stale cutoff, so the k-NN work must agree too: both
// engines key their walk through the same envelope store, stream the same
// candidates at the same keys and stop on the same one. Frontier re-pushes
// are not compared: an item re-enters the frontier when its sharpened key
// exceeds the frontier's minimum, and that minimum is often a node, whose
// mindist depends on how the engine packed it.
func TestFlatEngineOracle(t *testing.T) {
	bases := map[string]seq.Base{"linf": seq.LInf, "l1": seq.L1, "l2sq": seq.L2Sq}
	rng := rand.New(rand.NewSource(4243))
	data := synth.RandomWalkSetVaryLen(rng, 130, 12, 40)
	extra := synth.RandomWalkSetVaryLen(rng, 60, 12, 40)

	store, err := seqdb.NewMem(seqdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rtree, err := NewFeatureIndex(IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rtree.Close()
	flat, err := NewFlatIndex(IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	envs := NewEnvStore()

	check := func(t *testing.T, live []seq.Sequence) {
		matches := 0
		defer func() {
			if matches == 0 {
				t.Fatal("no range query matched anything: the comparison was vacuous")
			}
		}()
		for name, base := range bases {
			for _, workers := range []int{1, 4} {
				for _, band := range []int{0, 8} {
					label := fmt.Sprintf("%s/workers%d/band%d", name, workers, band)
					searcher := func(idx Index) *TWSimSearch {
						return &TWSimSearch{DB: store, Index: idx, Base: base, Workers: workers, Band: band, Envs: envs}
					}
					qrng := rand.New(rand.NewSource(99))
					for trial := 0; trial < 6; trial++ {
						q := synth.Query(qrng, live)
						eps := 0.1 + qrng.Float64()*0.7
						gr, err := searcher(rtree).Search(q, eps)
						if err != nil {
							t.Fatal(err)
						}
						fr, err := searcher(flat).Search(q, eps)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(gr.Matches, fr.Matches) || gr.Stats.Candidates != fr.Stats.Candidates {
							t.Fatalf("%s trial %d eps=%g: Search diverged: rtree %d matches of %d candidates, flat %d of %d",
								label, trial, eps, len(gr.Matches), gr.Stats.Candidates, len(fr.Matches), fr.Stats.Candidates)
						}
						matches += len(fr.Matches)
						k := 1 + qrng.Intn(8)
						gk, gs, err := searcher(rtree).NearestKSharedStats(q, k, nil)
						if err != nil {
							t.Fatal(err)
						}
						fk, fs, err := searcher(flat).NearestKSharedStats(q, k, nil)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(gk, fk) {
							t.Fatalf("%s trial %d k=%d: NearestK diverged", label, trial, k)
						}
						if workers == 1 && (gs.Candidates != fs.Candidates || gs.KNNEnvCutoffs != fs.KNNEnvCutoffs) {
							t.Fatalf("%s trial %d k=%d: k-NN work diverged: rtree candidates=%d envCutoffs=%d, flat %d/%d",
								label, trial, k, gs.Candidates, gs.KNNEnvCutoffs, fs.Candidates, fs.KNNEnvCutoffs)
						}
					}
				}
			}
		}
	}

	// Phase 1: bulk load (flat: one STR-packed snapshot, empty delta).
	ids := make([]seq.ID, len(data))
	features := make([]seq.Feature, len(data))
	for i, s := range data {
		if ids[i], err = store.Append(s); err != nil {
			t.Fatal(err)
		}
		features[i] = seq.MustFeature(s)
		pe, _ := seq.ExtractPAAEnvelope(s)
		envs.Put(ids[i], pe)
	}
	for _, idx := range []Index{rtree, flat} {
		if err := idx.BulkLoad(ids, features); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("snapshot", func(t *testing.T) { check(t, data) })

	// Phase 2: inserts land in the flat delta, removes of bulk-loaded
	// entries become tombstones, removes of fresh inserts shrink the delta.
	live := append([]seq.Sequence(nil), data...)
	var added []seq.ID
	for _, s := range extra {
		id, err := store.Append(s)
		if err != nil {
			t.Fatal(err)
		}
		pe, _ := seq.ExtractPAAEnvelope(s)
		envs.Put(id, pe)
		for _, idx := range []Index{rtree, flat} {
			if err := idx.Insert(id, s); err != nil {
				t.Fatal(err)
			}
		}
		added = append(added, id)
		live = append(live, s)
	}
	for _, id := range append(append([]seq.ID(nil), ids[:20]...), added[:10]...) {
		s, err := store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range []Index{rtree, flat} {
			if ok, err := idx.Delete(id, s); err != nil || !ok {
				t.Fatalf("Delete(%d) = %v, %v", id, ok, err)
			}
		}
		envs.Remove(id)
		if _, err := store.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if st := flat.EngineStats(); st.DeltaEntries != len(extra)-10+20 || st.Merges != 0 {
		t.Fatalf("flat delta holds %d entries after %d merges, want %d adds + 20 tombstones unmerged",
			st.DeltaEntries, st.Merges, len(extra)-10)
	}
	t.Run("snapshot+delta", func(t *testing.T) { check(t, live) })
	if rtree.Len() != flat.Len() {
		t.Fatalf("Len diverged: rtree %d, flat %d", rtree.Len(), flat.Len())
	}
}
