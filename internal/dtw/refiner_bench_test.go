package dtw

import (
	"math/rand"
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
