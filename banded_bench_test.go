package twsim_test

import (
	"context"
	"math/rand"
	"testing"

	twsim "repro"
	"repro/internal/synth"
)

// BenchmarkBandedServed times banded queries through the public API on a
// file-backed database of knn_banded's shape, scaled down: 20 000 random
// walks of 128 (seed 7), 200 paper-style queries, band 8, RefineWorkers 1.
// It prices the banded cascade — LB_PAA, LB_Keogh, the banded DP — the way
// the server runs it, which cmd/bench's one banded workload (k-NN) cannot
// do for range search:
//
//	knn_k10       k-NN, k = 10: ≈ 21 candidates, ≈ 19.5 reach the DP
//	range_eps0.3  range search at ε 0.3: ≈ 166 candidates, LB_PAA
//	              dismisses ≈ 142, ≈ 21 reach the DP
//	range_eps1.0  range search at ε 1.0: ≈ 2 450 candidates, ≈ 1 880 reach
//	              the DP and ≈ 1 770 of them are results
//
// One op is one query; the queries cycle in order, so an op count that is a
// multiple of 200 averages every query the same number of times. Per op it
// reports cand/op (the index candidates), paa/op and keogh/op (the two
// tiers' dismissals) and dtw/op (the candidates the DP decided). `make
// kernels` runs it from a test binary, in the form:
//
//	go test -run '^$' -bench 'BandedServed/^(knn_k10|range_eps0\.3)$' -benchtime 2000x -cpu 1 .
//	go test -run '^$' -bench 'BandedServed/^range_eps1\.0$' -benchtime 200x -cpu 1 .
func BenchmarkBandedServed(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	corpus := synth.RandomWalkSet(rng, 20_000, 128)
	queries := synth.Queries(rng, corpus, 200)
	data := make([][]float64, len(corpus))
	for i, s := range corpus {
		data[i] = s
	}
	db, err := twsim.Create(b.TempDir(), twsim.Options{RefineWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.AddBatch(data); err != nil {
		b.Fatal(err)
	}
	const band = 8
	ctx := context.Background()
	for _, bc := range []struct {
		name string
		run  func(q []float64) (*twsim.Result, error)
	}{
		{"knn_k10", func(q []float64) (*twsim.Result, error) { return db.NearestKCtx(ctx, q, 10, band) }},
		{"range_eps0.3", func(q []float64) (*twsim.Result, error) { return db.SearchCtx(ctx, q, 0.3, band) }},
		{"range_eps1.0", func(q []float64) (*twsim.Result, error) { return db.SearchCtx(ctx, q, 1.0, band) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var st twsim.QueryStats
			for i := 0; i < b.N; i++ {
				res, err := bc.run(queries[i%len(queries)])
				if err != nil {
					b.Fatal(err)
				}
				st.Add(res.Stats)
			}
			n := float64(b.N)
			b.ReportMetric(float64(st.Candidates)/n, "cand/op")
			b.ReportMetric(float64(st.LBPAAPruned)/n, "paa/op")
			b.ReportMetric(float64(st.LBKeoghPruned)/n, "keogh/op")
			b.ReportMetric(float64(st.DTWCalls)/n, "dtw/op")
		})
	}
}
