// Benchmarks regenerating the paper's evaluation (one bench per figure) plus
// ablations of the design choices called out in DESIGN.md §5.
//
// The fixtures here are scaled to keep `go test -bench=.` in the minutes
// range; cmd/experiments runs the same sweeps at the paper's (or near-paper)
// scale and prints the full tables.
package twsim_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	twsim "repro"
	"repro/internal/core"
	"repro/internal/dtw"
	"repro/internal/experiments"
	"repro/internal/pagefile"
	"repro/internal/rtree"
	"repro/internal/seq"
	"repro/internal/synth"
)

// benchFixture lazily builds one shared stock-like fixture for the Figure 2
// and Figure 3 benches.
type benchFixture struct {
	once    sync.Once
	fixture *experiments.Fixture
	queries []seq.Sequence
	err     error
}

var stockFx benchFixture

func (bf *benchFixture) get(b *testing.B) (*experiments.Fixture, []seq.Sequence) {
	bf.once.Do(func() {
		rng := rand.New(rand.NewSource(42))
		data := synth.StockSet(rng, synth.StockOptions{Count: 200, MeanLen: 100, LenSpread: 20})
		bf.fixture, bf.err = experiments.BuildFixture(data, experiments.Config{
			Seed: 42, WithSTFilter: true, Categories: 100, NumQueries: 1,
		})
		if bf.err != nil {
			return
		}
		bf.queries = synth.Queries(rng, data, 10)
	})
	if bf.err != nil {
		b.Fatal(bf.err)
	}
	return bf.fixture, bf.queries
}

// runMethod executes one query batch per iteration and reports candidate
// ratio and modeled time as extra metrics.
func runMethod(b *testing.B, m core.Searcher, queries []seq.Sequence, dbSize int, eps float64) {
	b.Helper()
	var agg core.QueryStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			res, err := m.Search(q, eps)
			if err != nil {
				b.Fatal(err)
			}
			agg.Add(res.Stats)
		}
	}
	n := float64(b.N * len(queries))
	b.ReportMetric(float64(agg.Candidates)/n/float64(dbSize), "cand-ratio")
	b.ReportMetric(float64(agg.Modeled(core.DefaultCostModel).Milliseconds())/n, "modeled-ms/q")
}

// BenchmarkFigure2Filtering reproduces Experiment 1 (Figure 2): the
// candidate ratio of each method on stock-like data. The cand-ratio metric
// is the figure's Y axis.
func BenchmarkFigure2Filtering(b *testing.B) {
	fx, queries := stockFx.get(b)
	for _, m := range fx.Methods {
		b.Run(m.Name(), func(b *testing.B) {
			runMethod(b, m, queries, len(fx.Data), 1.0)
		})
	}
}

// BenchmarkFigure3StockElapsed reproduces Experiment 2 (Figure 3): elapsed
// time per query on stock-like data across tolerances.
func BenchmarkFigure3StockElapsed(b *testing.B) {
	fx, queries := stockFx.get(b)
	for _, eps := range []float64{0.5, 2.0} {
		for _, m := range fx.Methods {
			b.Run(fmt.Sprintf("eps=%g/%s", eps, m.Name()), func(b *testing.B) {
				runMethod(b, m, queries, len(fx.Data), eps)
			})
		}
	}
}

// BenchmarkFigure4Scale reproduces Experiment 3 (Figure 4): elapsed time as
// the number of sequences grows, fixed length, eps = 0.1. The paper's
// finding: scans grow linearly, TW-Sim-Search stays nearly flat.
func BenchmarkFigure4Scale(b *testing.B) {
	for _, n := range []int{250, 1000, 4000} {
		rng := rand.New(rand.NewSource(7))
		data := synth.RandomWalkSet(rng, n, 64)
		fx, err := experiments.BuildFixture(data, experiments.Config{Seed: 7, NumQueries: 1})
		if err != nil {
			b.Fatal(err)
		}
		queries := synth.Queries(rng, data, 5)
		for _, m := range fx.Methods {
			b.Run(fmt.Sprintf("n=%d/%s", n, m.Name()), func(b *testing.B) {
				runMethod(b, m, queries, n, 0.1)
			})
		}
		fx.Close()
	}
}

// BenchmarkFigure5Length reproduces Experiment 4 (Figure 5): elapsed time as
// sequence length grows, fixed count, eps = 0.1.
func BenchmarkFigure5Length(b *testing.B) {
	for _, length := range []int{50, 200, 800} {
		rng := rand.New(rand.NewSource(9))
		data := synth.RandomWalkSet(rng, 400, length)
		fx, err := experiments.BuildFixture(data, experiments.Config{Seed: 9, NumQueries: 1})
		if err != nil {
			b.Fatal(err)
		}
		queries := synth.Queries(rng, data, 5)
		for _, m := range fx.Methods {
			b.Run(fmt.Sprintf("len=%d/%s", length, m.Name()), func(b *testing.B) {
				runMethod(b, m, queries, 400, 0.1)
			})
		}
		fx.Close()
	}
}

// scanPass runs one pass of a scan over data the way Naive-Scan refines:
// one Refiner for the pass, each sequence at epsilon (+Inf for the full
// distance).
func scanPass(data []seq.Sequence, q seq.Sequence, base seq.Base, epsilon float64) {
	r := dtw.AcquireRefiner()
	defer r.Release()
	for _, s := range data {
		r.DistanceWithin(s, q, base, epsilon)
	}
}

// BenchmarkAblationBaseDistance compares the DTW base distances (§4.1: L∞
// early-abandons sooner than L1, cutting CPU cost).
func BenchmarkAblationBaseDistance(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	data := synth.RandomWalkSet(rng, 200, 128)
	q := synth.Query(rng, data)
	for _, base := range []seq.Base{seq.LInf, seq.L1} {
		b.Run(base.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scanPass(data, q, base, 0.1)
			}
		})
	}
}

// BenchmarkAblationEarlyAbandon isolates the early-abandoning optimization
// of the refinement step.
func BenchmarkAblationEarlyAbandon(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	data := synth.RandomWalkSet(rng, 100, 128)
	q := synth.Query(rng, data)
	b.Run("abandon", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scanPass(data, q, seq.LInf, 0.1)
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scanPass(data, q, seq.LInf, dtw.Inf)
		}
	})
}

// BenchmarkAblationBulkLoad compares STR bulk loading against one-by-one
// insertion (§4.3.1's recommendation).
func BenchmarkAblationBulkLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	entries := make([]rtree.Entry, 2000)
	for i := range entries {
		f := seq.MustFeature(synth.RandomWalk(rng, 32)).Vector()
		entries[i] = rtree.Entry{Rect: rtree.NewPoint(f[:]), Child: uint32(i)}
	}
	b.Run("bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pool, _ := pagefile.NewPool(pagefile.NewMemBackend(1024), 1024, 64)
			tree, err := rtree.Create(pool, 4, rtree.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := tree.BulkLoad(entries); err != nil {
				b.Fatal(err)
			}
			tree.Close()
		}
	})
	b.Run("insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pool, _ := pagefile.NewPool(pagefile.NewMemBackend(1024), 1024, 64)
			tree, err := rtree.Create(pool, 4, rtree.Options{})
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range entries {
				if err := tree.Insert(e.Rect, e.Child); err != nil {
					b.Fatal(err)
				}
			}
			tree.Close()
		}
	})
}

// BenchmarkAblationSTCategories explores the §3.4 category-count trade-off:
// query cost across categorization granularities.
func BenchmarkAblationSTCategories(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	data := synth.RandomWalkSet(rng, 150, 48)
	fx, err := experiments.BuildFixture(data, experiments.Config{Seed: 23, NumQueries: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer fx.Close()
	queries := synth.Queries(rng, data, 5)
	for _, categories := range []int{20, 100, 500} {
		stf, err := core.BuildSTFilter(fx.DB, seq.LInf, categories)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("categories=%d", categories), func(b *testing.B) {
			runMethod(b, stf, queries, len(data), 0.1)
		})
	}
}

// BenchmarkLowerBounds compares the evaluation cost of the three lower
// bounds (LBKim is O(1) on pre-extracted features; the others scan).
func BenchmarkLowerBounds(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	s := synth.RandomWalk(rng, 256)
	q := synth.RandomWalk(rng, 256)
	fs, fq := seq.MustFeature(s), seq.MustFeature(q)
	env := dtw.NewEnvelope(q, 8)
	b.Run("LBKim-features", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dtw.LBKimFeatures(fs, fq)
		}
	})
	b.Run("LBKim-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dtw.LBKim(s, q)
		}
	})
	b.Run("LBYi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dtw.LBYi(s, q, seq.LInf)
		}
	})
	b.Run("LBKeogh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dtw.LBKeogh(s, env, seq.LInf)
		}
	})
}

// BenchmarkDTW measures the public distance functions at a few sizes.
func BenchmarkDTW(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{64, 256} {
		s := synth.RandomWalk(rng, n)
		q := synth.RandomWalk(rng, n)
		b.Run(fmt.Sprintf("full/%dx%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				twsim.Distance(s, q, twsim.BaseLInf)
			}
		})
		b.Run(fmt.Sprintf("band8/%dx%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				twsim.BandDistance(s, q, twsim.BaseLInf, 8)
			}
		})
	}
}

// BenchmarkSubseqSearch measures the §6 subsequence-matching extension.
func BenchmarkSubseqSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(37))
	data := synth.RandomWalkSet(rng, 50, 200)
	fx, err := experiments.BuildFixture(data, experiments.Config{Seed: 37, NumQueries: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer fx.Close()
	si, err := core.BuildSubseqIndex(fx.DB, seq.LInf, []int{16}, 2)
	if err != nil {
		b.Fatal(err)
	}
	defer si.Close()
	q := data[0][40:56]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := si.Search(q, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKNN measures the exact k-NN extension against a linear scan.
func BenchmarkKNN(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	data := synth.RandomWalkSet(rng, 1000, 64)
	fx, err := experiments.BuildFixture(data, experiments.Config{Seed: 41, NumQueries: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer fx.Close()
	tw := &core.TWSimSearch{DB: fx.DB, Index: fx.Index, Base: seq.LInf}
	q := synth.Query(rng, data)
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tw.NearestK(q, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scanPass(data, q, seq.LInf, dtw.Inf)
		}
	})
}

// BenchmarkSTFilterSubsequences measures the suffix-tree subsequence
// search (Park et al.'s original use case for the structure).
func BenchmarkSTFilterSubsequences(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	data := synth.RandomWalkSet(rng, 30, 100)
	fx, err := experiments.BuildFixture(data, experiments.Config{Seed: 47, NumQueries: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer fx.Close()
	stf, err := core.BuildSTFilter(fx.DB, seq.LInf, 100)
	if err != nil {
		b.Fatal(err)
	}
	q := data[0][20:28]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stf.SearchSubsequences(q, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}
