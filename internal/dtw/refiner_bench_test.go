package dtw

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/seq"
	"repro/internal/synth"
)

// rangePair is one (candidate, query) pair the refine tier would see.
type rangePair struct{ s, q seq.Sequence }

// rangeShaped builds, once, the pairs of the range_unbanded workload's shape
// from a fixed seed: 100 000 random walks with lengths 64..192, 40
// paper-style perturbed queries, and as each query's candidates the data
// sequences its four-feature index filter admits at ε = 0.30.
var rangeShaped = sync.OnceValues(func() (pairs []rangePair, cells int64) {
	const epsilon = 0.30
	rng := rand.New(rand.NewSource(7))
	data := synth.RandomWalkSetVaryLen(rng, 100_000, 64, 192)
	feats := make([]seq.Feature, len(data))
	for i, s := range data {
		feats[i] = seq.MustFeature(s)
	}
	for _, q := range synth.Queries(rng, data, 40) {
		fq := seq.MustFeature(q)
		for i, f := range feats {
			if f.DistLInf(fq) <= epsilon {
				pairs = append(pairs, rangePair{data[i], q})
				cells += int64(len(data[i])) * int64(len(q))
			}
		}
	}
	return pairs, cells
})

var refinerSink float64

// BenchmarkRefinerRangeShaped times Refiner.DistanceWithin over the pairs
// range_unbanded refines, so a kernel change can be compared between two
// commits with two `go test -c` binaries before paying for a cmd/bench run:
//
//	go test -c -o /root/scratch/dtw.test ./internal/dtw
//	/root/scratch/dtw.test -test.run '^$' -test.bench RefinerRangeShaped -test.cpu 1 -test.count 10
//
// (`make kernels` runs this and BenchmarkRefinerKNNShaped that way.)
// One op is one pass over all pairs; ns/cell divides by the full n×m
// matrices, whether or not the kernel visits every cell.
func BenchmarkRefinerRangeShaped(b *testing.B) {
	pairs, cells := rangeShaped()
	for _, bc := range []struct {
		base    seq.Base
		epsilon float64
	}{{seq.LInf, 0.30}, {seq.L1, 14}} {
		b.Run(bc.base.String(), func(b *testing.B) {
			r := AcquireRefiner()
			defer r.Release()
			within := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				within = 0
				for _, p := range pairs {
					d, v := r.DistanceWithin(p.s, p.q, bc.base, bc.epsilon)
					if v == VerdictWithin {
						within++
						refinerSink = d
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
			b.ReportMetric(float64(len(pairs)), "pairs")
			b.ReportMetric(float64(within), "within")
		})
	}
}

// knnTriple is one call the banded k-NN's exact step makes: the candidate,
// the query, and the k-th best distance at that moment (+Inf for the first
// k candidates of a query).
type knnTriple struct {
	s, q   seq.Sequence
	cutoff float64
}

// knnPass2 is one call of LB_Improved's second pass: a candidate that
// banded LB_Keogh let through, with the query's envelope.
type knnPass2 struct {
	s, q seq.Sequence
	env  Envelope
}

// knnCalls is what knnShaped collects: the calls that reach the DP with the
// in-band cells of their matrices, and the calls that reach LB_Improved's
// second pass.
type knnCalls struct {
	dp    []knnTriple
	cells int64
	pass2 []knnPass2
}

const knnShapedBand = 8

// knnShaped builds, once, what the knn_banded workload's last two tiers see
// from a fixed seed: 100 000 random walks of 128, 40 paper-style queries,
// k = 10, band 8, L∞. Each query walks the corpus in ascending Dtw-lb (the
// index walk's order before its LB_PAA sharpening, which this leaves out)
// until the bound passes the k-th best distance, and sends each candidate
// through banded LB_Keogh, LB_Improved and the banded DP as the cascade
// does.
var knnShaped = sync.OnceValue(func() (calls knnCalls) {
	const k = 10
	rng := rand.New(rand.NewSource(7))
	data := synth.RandomWalkSet(rng, 100_000, 128)
	feats := make([]seq.Feature, len(data))
	for i, s := range data {
		feats[i] = seq.MustFeature(s)
	}
	type keyed struct {
		lb float64
		i  int
	}
	walk := make([]keyed, len(data))
	var sc ImprovedScratch
	for _, q := range synth.Queries(rng, data, 40) {
		fq := seq.MustFeature(q)
		for i, f := range feats {
			walk[i] = keyed{f.DistLInf(fq), i}
		}
		sort.Slice(walk, func(a, b int) bool { return walk[a].lb < walk[b].lb })
		env := NewEnvelope(q, knnShapedBand)
		var best []float64 // ascending, at most k
		for _, c := range walk {
			cutoff := Inf
			if len(best) == k {
				cutoff = best[k-1]
			}
			if c.lb > cutoff {
				break
			}
			s := data[c.i]
			if len(best) == k {
				kB := LBKeogh(s, env, seq.LInf)
				if kB > cutoff {
					continue
				}
				calls.pass2 = append(calls.pass2, knnPass2{s, q, env})
				if LBImprovedPass2(s, q, env, seq.LInf, &sc) > cutoff {
					continue
				}
			}
			calls.dp = append(calls.dp, knnTriple{s, q, cutoff})
			for i := range s {
				lo, hi := bandRange(i, 1, knnShapedBand, len(q))
				calls.cells += int64(hi - lo + 1)
			}
			if d, ok := BandDistanceWithin(s, q, seq.LInf, knnShapedBand, cutoff); ok {
				at := sort.SearchFloat64s(best, d)
				best = append(best, 0)
				copy(best[at+1:], best[at:])
				best[at] = d
				best = best[:min(len(best), k)]
			}
		}
	}
	return calls
})

// BenchmarkRefinerKNNShaped times the banded exact step over the calls
// knn_banded's DP tier makes — the reference loop (BandDistanceWithin)
// beside Refiner.BandDistanceWithin, in ns per in-band cell — and
// LBImprovedPass2 over the pairs that reach it, in ns per call. One op is
// one pass over all calls.
func BenchmarkRefinerKNNShaped(b *testing.B) {
	calls := knnShaped()
	r := AcquireRefiner()
	defer r.Release()
	for _, bc := range []struct {
		name string
		dp   func(t knnTriple) (float64, bool)
	}{
		{"reference", func(t knnTriple) (float64, bool) {
			return BandDistanceWithin(t.s, t.q, seq.LInf, knnShapedBand, t.cutoff)
		}},
		{"refiner", func(t knnTriple) (float64, bool) {
			d, v := r.BandDistanceWithin(t.s, t.q, seq.LInf, knnShapedBand, t.cutoff)
			return d, v == VerdictWithin
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			within := 0
			for i := 0; i < b.N; i++ {
				within = 0
				for _, t := range calls.dp {
					if d, ok := bc.dp(t); ok {
						within++
						refinerSink = d
					}
				}
			}
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(perOp/float64(calls.cells), "ns/cell")
			b.ReportMetric(perOp/float64(len(calls.dp)), "ns/call")
			b.ReportMetric(float64(len(calls.dp)), "calls")
			b.ReportMetric(float64(within), "within")
		})
	}
	b.Run("LBImprovedPass2", func(b *testing.B) {
		var sc ImprovedScratch
		for i := 0; i < b.N; i++ {
			for _, p := range calls.pass2 {
				refinerSink = LBImprovedPass2(p.s, p.q, p.env, seq.LInf, &sc)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(calls.pass2)), "ns/call")
		b.ReportMetric(float64(len(calls.pass2)), "calls")
	})
}
