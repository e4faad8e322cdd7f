package dtw

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/seq"
	"repro/internal/synth"
)

// rangePair is one (candidate, query) pair the refine tier would see.
type rangePair struct{ s, q seq.Sequence }

// rangeEpsilon is the tolerance of the range_unbanded-shaped benchmarks.
const rangeEpsilon = 0.30

// rangeShaped builds, once, the pairs of the range_unbanded workload's shape
// from a fixed seed: 100 000 random walks with lengths 64..192, 40
// paper-style perturbed queries, and as each query's candidates the data
// sequences its four-feature index filter admits at ε = rangeEpsilon.
var rangeShaped = sync.OnceValues(func() (pairs []rangePair, cells int64) {
	rng := rand.New(rand.NewSource(7))
	data := synth.RandomWalkSetVaryLen(rng, 100_000, 64, 192)
	feats := make([]seq.Feature, len(data))
	for i, s := range data {
		feats[i] = seq.MustFeature(s)
	}
	for _, q := range synth.Queries(rng, data, 40) {
		fq := seq.MustFeature(q)
		for i, f := range feats {
			if f.DistLInf(fq) <= rangeEpsilon {
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
// matrices, whether or not the kernel visits every cell. The route,
// refiner and corridor sub-benchmarks price verifyDP's unbanded L∞ route
// and its step (3); envelope and envelope_route the pre-fetch tier in front
// of it.
func BenchmarkRefinerRangeShaped(b *testing.B) {
	pairs, cells := rangeShaped()
	for _, bc := range []struct {
		base    seq.Base
		epsilon float64
	}{{seq.LInf, 0.30}} {
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
	// route is what the cascade's verifyDP does with an unbanded L∞
	// candidate: the decision at ε keeping its reach rows, then the decision
	// at LB_Kim, and the windowed DP only for a result the second decision
	// did not settle.
	b.Run("route", func(b *testing.B) {
		deciders := rangeDeciders(pairs)
		r := AcquireRefiner()
		defer r.Release()
		within, atLB := 0, 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			within, atLB = 0, 0
			for k, p := range pairs {
				d := deciders[k]
				if !d.WithinKeep(p.s, rangeEpsilon, r) {
					continue
				}
				within++
				if lb := d.LBKim(p.s); d.Within(p.s, lb) {
					atLB++
					refinerSink = lb
					continue
				}
				refinerSink, _ = r.CorridorDistance(p.s, p.q)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pairs)), "ns/pair")
		b.ReportMetric(float64(within), "within")
		b.ReportMetric(float64(atLB), "at_lb")
	})
	// envelope prices the unbanded pre-fetch tier on its own: the decision
	// at ε over each candidate's 16 stored segments (WithinBounds on the
	// bounds segmentBounds packs as the envelope store does), at ε 0.30 and,
	// over the pairs whose LB_Kim admits them there, at 0.20. It reports the
	// non-results (the pairs Within rejects), the share of them the tier
	// dismisses and its false dismissals, which must be 0. Each pass builds
	// every query's rank table afresh (forgetBounds), as a served query
	// builds its own, so ns/pair carries the build.
	// envelope_route is the route with that tier in front, as range search
	// runs it, in ns per pair beside route's.
	for _, eps := range []float64{0.30, 0.20} {
		b.Run(fmt.Sprintf("envelope/eps%.2f", eps), func(b *testing.B) {
			env := envelopePairs(pairs, eps)
			dismissed := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dismissed = 0
				env.forgetBounds()
				for k := range env.pairs {
					if !env.deciders[k].WithinBounds(env.lo[k][:], env.hi[k][:], eps) {
						dismissed++
					}
				}
			}
			b.StopTimer()
			falseDismissals := 0
			for k, p := range env.pairs {
				if !env.deciders[k].WithinBounds(env.lo[k][:], env.hi[k][:], eps) && env.deciders[k].Within(p.s, eps) {
					falseDismissals++
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(env.pairs)), "ns/pair")
			b.ReportMetric(float64(len(env.pairs)), "pairs")
			b.ReportMetric(float64(env.nonResults), "nonresults")
			b.ReportMetric(float64(dismissed), "dismissed")
			b.ReportMetric(float64(dismissed)/float64(env.nonResults), "dismissed_share")
			b.ReportMetric(float64(falseDismissals), "false_dismissals")
		})
	}
	b.Run("envelope_route", func(b *testing.B) {
		env := envelopePairs(pairs, rangeEpsilon)
		r := AcquireRefiner()
		defer r.Release()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env.forgetBounds()
			for k, p := range env.pairs {
				d := env.deciders[k]
				if !d.WithinBounds(env.lo[k][:], env.hi[k][:], rangeEpsilon) || !d.WithinKeep(p.s, rangeEpsilon, r) {
					continue
				}
				if lb := d.LBKim(p.s); d.Within(p.s, lb) {
					refinerSink = lb
					continue
				}
				refinerSink, _ = r.CorridorDistance(p.s, p.q)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(env.pairs)), "ns/pair")
	})
	// refiner and corridor price the route's step (3) on the pairs that
	// reach it, the two ways it can value them: the refiner at ε, as before
	// the windows, and the windows plus the windowed DP from the reach rows
	// the decision at ε already kept.
	b.Run("refiner", func(b *testing.B) {
		step := step3()
		r := AcquireRefiner()
		defer r.Release()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range step.pairs {
				refinerSink, _ = r.DistanceWithin(p.s, p.q, seq.LInf, rangeEpsilon)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(step.pairs)), "ns/pair")
		b.ReportMetric(float64(len(step.pairs)), "pairs")
	})
	b.Run("corridor", func(b *testing.B) {
		step := step3()
		r := AcquireRefiner()
		defer r.Release()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k, p := range step.pairs {
				r.reach, r.kept = step.rows[k], len(p.s)
				refinerSink, _ = r.CorridorDistance(p.s, p.q)
			}
		}
		perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(perOp/float64(len(step.pairs)), "ns/pair")
		b.ReportMetric(perOp/float64(step.windowCells), "ns/window_cell")
		b.ReportMetric(float64(step.windowCells)/float64(step.cells), "window_share")
	})
}

// step3Pairs is what step3 collects: the pairs, the reach rows at ε each
// pair's decision kept, the cells of their matrices and the cells the
// windowed DP visits.
type step3Pairs struct {
	pairs              []rangePair
	rows               [][]uint64
	cells, windowCells int64
}

// step3 collects, once, the rangeShaped pairs that reach step (3) of the
// route: accepted at ε and not valued at LB_Kim.
var step3 = sync.OnceValue(func() (st step3Pairs) {
	pairs, _ := rangeShaped()
	deciders := rangeDeciders(pairs)
	r := AcquireRefiner()
	defer r.Release()
	for k, p := range pairs {
		d := deciders[k]
		if !d.WithinKeep(p.s, rangeEpsilon, r) || d.Within(p.s, d.LBKim(p.s)) {
			continue
		}
		n, m := len(p.s), len(p.q)
		st.pairs = append(st.pairs, p)
		st.rows = append(st.rows, slices.Clone(r.reach[:n*d.words]))
		st.cells += int64(n) * int64(m)
		r.windows(n, m, d.words)
		st.windowCells += windowCells(r.lo[:n], r.hi[:n])
	}
	return st
})

// windowCells is the number of cells corridorMax visits over the windows
// lo, hi: each pair of rows covers the union of its two windows twice.
func windowCells(lo, hi []int32) (cells int64) {
	n := len(lo)
	for i := 0; i+1 < n; i += 2 {
		cells += 2 * int64(hi[i+1]-lo[i]+1)
	}
	if n%2 == 1 {
		cells += int64(hi[n-1] - lo[n-1] + 1)
	}
	return cells
}

// envPairs is what envelopePairs collects: the pairs a range query at one
// tolerance refines, each with its query's Decider and its record's stored
// segment bounds, and how many of them are not results.
type envPairs struct {
	pairs      []rangePair
	deciders   []*Decider
	lo, hi     [][seq.PAASegments]float64
	nonResults int
}

// envelopePairs keeps the rangeShaped pairs whose LB_Kim is ≤ eps (all of
// them at rangeEpsilon) with what the unbanded pre-fetch tier reads.
func envelopePairs(pairs []rangePair, eps float64) (env envPairs) {
	deciders := rangeDeciders(pairs)
	for k, p := range pairs {
		d := deciders[k]
		if d.LBKim(p.s) > eps {
			continue
		}
		lo, hi := segmentBounds(p.s)
		env.pairs = append(env.pairs, p)
		env.deciders = append(env.deciders, d)
		env.lo, env.hi = append(env.lo, lo), append(env.hi, hi)
		if !d.Within(p.s, eps) {
			env.nonResults++
		}
	}
	return env
}

// forgetBounds drops every decider's WithinBounds table, so the next pass
// builds each one again.
func (env envPairs) forgetBounds() {
	for _, d := range env.deciders {
		d.boundsT = math.NaN()
	}
}

// segmentBounds is s's PAA envelope as the envelope store holds it: each
// segment's min rounded down and max rounded up to a float32.
func segmentBounds(s seq.Sequence) (lo, hi [seq.PAASegments]float64) {
	pe, err := seq.ExtractPAAEnvelope(s)
	if err != nil {
		panic(err)
	}
	for k := range lo {
		l, h := float32(pe.Min[k]), float32(pe.Max[k])
		if float64(l) > pe.Min[k] {
			l = math.Nextafter32(l, float32(math.Inf(-1)))
		}
		if float64(h) < pe.Max[k] {
			h = math.Nextafter32(h, float32(math.Inf(1)))
		}
		lo[k], hi[k] = float64(l), float64(h)
	}
	return lo, hi
}

// rangeDeciders indexes each query of the pairs once, as a query's cascade
// does, and returns the Decider of each pair's query.
func rangeDeciders(pairs []rangePair) []*Decider {
	out := make([]*Decider, len(pairs))
	for k, p := range pairs {
		if k > 0 && &p.q[0] == &pairs[k-1].q[0] {
			out[k] = out[k-1]
		} else {
			out[k] = AcquireDecider(p.q)
		}
	}
	return out
}

// BenchmarkDecide times Decider.Within at ε 0.30 over the pairs
// range_unbanded refines — the decision the cascade makes first for each
// candidate, there in its row-keeping form (WithinKeep, priced inside
// BenchmarkRefinerRangeShaped/route) — in ns per decision. `make kernels`
// runs it.
func BenchmarkDecide(b *testing.B) {
	pairs, _ := rangeShaped()
	deciders := rangeDeciders(pairs)
	within := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		within = 0
		for k, p := range pairs {
			if deciders[k].Within(p.s, rangeEpsilon) {
				within++
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pairs)), "ns/decision")
	b.ReportMetric(float64(within), "within")
}

// knnTriple is one call the banded k-NN's exact step makes: the candidate,
// the query, and the k-th best distance at that moment (+Inf for the first
// k candidates of a query).
type knnTriple struct {
	s, q   seq.Sequence
	cutoff float64
}

// knnCalls is what knnShaped collects: the calls that reach the DP with the
// in-band cells of their matrices.
type knnCalls struct {
	dp    []knnTriple
	cells int64
}

const knnShapedBand = 8

// knnShaped builds, once, what the knn_banded workload's DP tier sees from a
// fixed seed: 100 000 random walks of 128, 40 paper-style queries, k = 10,
// band 8, L∞. Each query walks the corpus in ascending Dtw-lb (the index
// walk's order before its LB_PAA sharpening, which this leaves out) until
// the bound passes the k-th best distance, and sends each candidate through
// banded LB_Keogh and the banded DP as the cascade does. Without the
// sharpening the model overstates what the server does: this order makes
// ≈ 132 DP calls a query, while the served walk, keyed by the two-sided
// LB_PAA, streams ≈ 29 candidates and makes ≈ 25 — about 5× fewer. The
// calls are the right shape for the kernels, not the right count for the
// workload.
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
			if len(best) == k && LBKeogh(s, env, seq.LInf) > cutoff {
				continue
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
// beside Refiner.BandDistanceWithin, in ns per in-band cell and per call.
// One op is one pass over all calls.
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
}
