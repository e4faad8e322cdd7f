package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/seq"
	"repro/internal/seqdb"
	"repro/internal/synth"
)

// BenchmarkRangeAdditiveBases: unbanded range search under the additive
// bases — the one place the deleted global-envelope LB_Keogh / LB_Yi tiers
// could dismiss a candidate the index walk admitted (a sum over positions
// can exceed the 4-tuple's max). The refine kernel abandons such a candidate
// within its first rows instead; CHANGES.md (PR 17) holds the before/after
// row of this benchmark. The L∞ row is the control: those tiers never pruned
// there (dtw.TestGlobalBoundsBelowKim).
func BenchmarkRangeAdditiveBases(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	data := synth.RandomWalkSetVaryLen(rng, 4000, 64, 192)
	queries := synth.Queries(rng, data, 20)
	db, err := seqdb.NewMem(seqdb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	idx, err := NewFeatureIndex(IndexOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer idx.Close()
	ids := make([]seq.ID, len(data))
	features := make([]seq.Feature, len(data))
	for i, s := range data {
		if ids[i], err = db.Append(s); err != nil {
			b.Fatal(err)
		}
		features[i] = seq.MustFeature(s)
	}
	if err := idx.BulkLoad(ids, features); err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		base seq.Base
		eps  float64
	}{{seq.LInf, 0.4}, {seq.L1, 0.4}, {seq.L1, 20}, {seq.L2Sq, 0.16}, {seq.L2Sq, 4}} {
		tw := &TWSimSearch{DB: db, Index: idx, Base: tc.base}
		var st QueryStats
		for _, q := range queries {
			res, err := tw.Search(q, tc.eps)
			if err != nil {
				b.Fatal(err)
			}
			st.Add(res.Stats)
		}
		b.Run(fmt.Sprintf("%v/eps=%g/cand=%d/res=%d/dp=%d", tc.base, tc.eps,
			st.Candidates/len(queries), st.Results/len(queries), st.DTWCalls/len(queries)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tw.Search(queries[i%len(queries)], tc.eps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
