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
//	knn_k10_delta2000
//	              knn_k10 on a second database of the same walks, loaded
//	              as the server is: 18 000 bulk-loaded, the last 2 000
//	              inserted by a second AddBatch, so the walk runs over a
//	              2 000-add unmerged delta (below the 4 096 merge threshold)
//
// One op is one query; the queries cycle in order, so an op count that is a
// multiple of 200 averages every query the same number of times. Per op it
// reports cand/op (the index candidates), paa/op and keogh/op (the two
// tiers' dismissals) and dtw/op (the candidates the DP decided). `make
// kernels` runs it from a test binary, in the form:
//
//	go test -run '^$' -bench 'BandedServed/^(knn_k10|range_eps0\.3|knn_k10_delta2000)$' -benchtime 2000x -cpu 1 .
//	go test -run '^$' -bench 'BandedServed/^range_eps1\.0$' -benchtime 200x -cpu 1 .
func BenchmarkBandedServed(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	corpus := synth.RandomWalkSet(rng, 20_000, 128)
	queries := synth.Queries(rng, corpus, 200)
	data := make([][]float64, len(corpus))
	for i, s := range corpus {
		data[i] = s
	}
	// load creates a database in dir and adds data in one AddBatch per
	// part: the first bulk-loads the index, the rest go through its delta.
	load := func(b *testing.B, dir string, parts ...[][]float64) *twsim.DB {
		db, err := twsim.Create(dir, twsim.Options{RefineWorkers: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, part := range parts {
			if _, err := db.AddBatch(part); err != nil {
				db.Close()
				b.Fatal(err)
			}
		}
		return db
	}
	db := load(b, b.TempDir(), data)
	defer db.Close()
	const band, deltaN = 8, 2_000
	// The delta database is built on first use, so only its case pays
	// for the load.
	deltaDir := b.TempDir()
	var deltaDB *twsim.DB
	defer func() {
		if deltaDB != nil {
			deltaDB.Close()
		}
	}()
	ctx := context.Background()
	for _, bc := range []struct {
		name string
		run  func(q []float64) (*twsim.Result, error)
	}{
		{"knn_k10", func(q []float64) (*twsim.Result, error) { return db.NearestKCtx(ctx, q, 10, band) }},
		{"range_eps0.3", func(q []float64) (*twsim.Result, error) { return db.SearchCtx(ctx, q, 0.3, band) }},
		{"range_eps1.0", func(q []float64) (*twsim.Result, error) { return db.SearchCtx(ctx, q, 1.0, band) }},
		{"knn_k10_delta2000", func(q []float64) (*twsim.Result, error) { return deltaDB.NearestKCtx(ctx, q, 10, band) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if bc.name == "knn_k10_delta2000" && deltaDB == nil {
				deltaDB = load(b, deltaDir, data[:len(data)-deltaN], data[len(data)-deltaN:])
				if got := deltaDB.IndexEngineStats().DeltaEntries; got != deltaN {
					b.Fatalf("the second AddBatch left %d delta entries, want %d", got, deltaN)
				}
				b.ResetTimer()
			}
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

// BenchmarkOpen times one clean Open of a file-backed database of 20 000
// random walks of 128 (seed 7), closed cleanly: the heap scan that derives
// the feature index and the PAA envelopes, and the bulk load. One op is one
// Open; the Close after it is not timed. `make kernels` runs it.
func BenchmarkOpen(b *testing.B) {
	corpus := synth.RandomWalkSet(rand.New(rand.NewSource(7)), 20_000, 128)
	data := make([][]float64, len(corpus))
	for i, s := range corpus {
		data[i] = s
	}
	dir := b.TempDir()
	db, err := twsim.Create(dir, twsim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.AddBatch(data); err != nil {
		b.Fatal(err)
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := twsim.Open(dir, twsim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if db.Len() != len(data) {
			b.Fatalf("opened %d sequences, want %d", db.Len(), len(data))
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
