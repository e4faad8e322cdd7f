package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dtw"
	"repro/internal/seq"
	"repro/internal/synth"
)

// intervalGapPAA is a test-local copy of the interval-gap form of LB_PAA
// under L∞ for a record of length n: the max over non-empty segments k of
// the gap between [mins[k], maxs[k]] and Q's range over the band-expanded
// window [lo_k − r, hi_k − 1 + r] ∩ [0, |Q|−1], or over the whole of Q when
// r < 0 (the global-range form). The banded form is what lbPAA computed
// before it became two-sided; the global one is what it computed for every
// other L∞ pair before that form was deleted.
func intervalGapPAA(n int, mins, maxs *[seq.PAASegments]float64, q seq.Sequence, r int) float64 {
	lb := 0.0
	for k := 0; k < seq.PAASegments; k++ {
		lo, hi := seq.PAABounds(n, k)
		if lo >= hi {
			continue
		}
		wlo, whi := 0, len(q)-1
		if r >= 0 {
			wlo, whi = max(lo-r, 0), min(hi-1+r, len(q)-1)
		}
		qlo, qhi := q[wlo : whi+1].MinMax()
		if g := intervalGap(mins[k], maxs[k], qlo, qhi); g > lb {
			lb = g
		}
	}
	return lb
}

// intervalGap is the smallest distance between a point of [aLo, aHi] and a
// point of [bLo, bHi]: 0 when the intervals overlap.
func intervalGap(aLo, aHi, bLo, bHi float64) float64 {
	switch {
	case aLo > bHi:
		return aLo - bHi
	case bLo > aHi:
		return bLo - aHi
	default:
		return 0
	}
}

// inwardGapPAA is intervalGapPAA on the bounds lbPAABanded's forward terms
// read from a packed record, each one float32 ulp inward. A segment whose
// stored interval is at most two ulps wide (a constant one, say) reads
// inverted, Min above Max; its interval is the one the two reads span.
func inwardGapPAA(pe *PackedEnvelope, q seq.Sequence, r int) float64 {
	var mins, maxs [seq.PAASegments]float64
	for k := range mins {
		mins[k], maxs[k] = min(pe.minIn(k), pe.maxIn(k)), max(pe.minIn(k), pe.maxIn(k))
	}
	return intervalGapPAA(int(pe.Len), &mins, &maxs, q, r)
}

// TestGlobalPAABelowKim is dtw.TestGlobalBoundsBelowKim for LB_PAA: under L∞
// the global-range form — every pair that is not banded and of equal length —
// is at most LB_Kim, with no rounding slack, because Min_k − max Q ≤
// Greatest(S) − Greatest(Q) and min Q − Max_k ≤ Smallest(Q) − Smallest(S)
// by monotone rounding. The walk has applied LB_Kim to every candidate it
// streams, so that form could neither prune nor raise a key, and lbPAA
// returns 0 there instead of computing it.
func TestGlobalPAABelowKim(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 5000; trial++ {
		s := synth.RandomWalk(rng, 1+rng.Intn(64))
		q := synth.RandomWalk(rng, 1+rng.Intn(64))
		if rng.Intn(2) == 0 { // shift half the pairs apart so the gaps are not all 0
			for i := range s {
				s[i] += rng.Float64() * 4
			}
		}
		pe, err := seq.ExtractPAAEnvelope(s)
		if err != nil {
			t.Fatal(err)
		}
		kim := dtw.LBKim(s, q)
		if g := intervalGapPAA(pe.Len, &pe.Min, &pe.Max, q, -1); g > kim {
			t.Fatalf("trial %d |s|=%d |q|=%d: global-range LB_PAA %v > LB_Kim %v", trial, len(s), len(q), g, kim)
		}
		band := rng.Intn(3)
		if band >= 1 && len(s) == len(q) {
			continue // a banded equal-length pair takes the two-sided form
		}
		packed := PackEnvelope(pe)
		if lb := newPAAPruner(q, band).lbPAA(&packed); lb > kim {
			t.Fatalf("trial %d band %d: lbPAA %v > LB_Kim %v", trial, band, lb, kim)
		}
	}
}

// FuzzLBPAASound fuzzes the banded L∞ form of LB_PAA on fuzzer-chosen
// equal-length pairs and bands, through the packed record the store holds:
// it must not exceed BandDistance — compared exactly, which is what the
// strict `key > cutoff` stop of the k-NN walk needs — and must not fall
// below the interval-gap form on the inward-read bounds. Bytes decode as
// FuzzBandedBoundChain decodes them, b/16 − 8, except that an odd byte adds
// 0.1: that value is not a float32, so packing moves its stored bounds,
// while even bytes stay exact, zero included. `make fuzz-smoke` runs it
// briefly.
func FuzzLBPAASound(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{4, 3, 2, 1}, 1)
	f.Add([]byte{0, 255, 0, 255, 128}, []byte{128, 128, 128, 128, 128}, 2)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 200}, []byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, 3)
	f.Add([]byte{9}, []byte{200}, 0)
	// A constant S below a constant Q, both off the float32 grid: every
	// pair costs q − s, and a forward term that read the stored Min (one
	// rounding below s) would exceed it.
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, []byte{201, 201, 201, 201, 201, 201, 201, 201, 201, 201, 201, 201, 201, 201, 201, 201, 201, 201, 201, 201}, 2)
	f.Fuzz(func(t *testing.T, sraw, qraw []byte, r int) {
		n := min(len(sraw), len(qraw), 130)
		if n == 0 {
			return
		}
		r = 1 + int(uint(r)%uint(n+4)) // a banded query: 1 ≤ r ≤ n+4
		s := make(seq.Sequence, n)
		q := make(seq.Sequence, n)
		for i := 0; i < n; i++ {
			s[i], q[i] = fuzzValue(sraw[i]), fuzzValue(qraw[i])
		}
		pe, err := seq.ExtractPAAEnvelope(s)
		if err != nil {
			t.Fatal(err)
		}
		packed := PackEnvelope(pe)
		lb := newPAAPruner(q, r).lbPAA(&packed)
		if bd := dtw.BandDistance(s, q, seq.LInf, r); lb > bd {
			t.Fatalf("n=%d r=%d: LB_PAA %v > BandDistance %v", n, r, lb, bd)
		}
		if gap := inwardGapPAA(&packed, q, r); lb < gap {
			t.Fatalf("n=%d r=%d: LB_PAA %v < interval-gap form %v", n, r, lb, gap)
		}
	})
}

// FuzzSegmentDecisionSound: the unbanded pre-fetch tier — the decision at t
// over a record's 16 stored segments (cascade.segmentsWithin) — says no only
// when Distance(s, q, L∞) > t, for records of 1–300 elements (those under 16
// store degenerate segments) and t one ulp either side of, or on, the cost
// fl|s_i − q_j| of a pair pick chooses: the costs are where a verdict can
// flip. Bytes decode as in FuzzLBPAASound, so packing moves the stored bounds
// of odd bytes. `make fuzz-smoke` runs it briefly.
func FuzzSegmentDecisionSound(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{4, 3, 2, 1}, uint16(5), int8(-1))
	f.Add([]byte{1, 2, 3, 4}, []byte{4, 3, 2, 1}, uint16(5), int8(1))
	f.Add([]byte{9}, []byte{200, 9, 201}, uint16(1), int8(-1))
	f.Add([]byte{0, 255, 0, 255, 128, 7, 31}, []byte{128, 128, 128, 128, 128}, uint16(3), int8(1))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, []byte{201, 201, 201}, uint16(0), int8(-1))
	f.Add([]byte{10, 40, 70, 100, 130, 160, 190, 220, 250, 220, 190, 160, 130, 100, 70, 40, 10, 11, 13},
		[]byte{10, 70, 130, 190, 250, 190, 130, 70, 10}, uint16(77), int8(-1))
	f.Fuzz(func(t *testing.T, sraw, qraw []byte, pick uint16, nudge int8) {
		n, m := min(len(sraw), 300), min(len(qraw), 300)
		if n == 0 || m == 0 {
			return
		}
		s, q := make(seq.Sequence, n), make(seq.Sequence, m)
		for i := range s {
			s[i] = fuzzValue(sraw[i])
		}
		for j := range q {
			q[j] = fuzzValue(qraw[j])
		}
		i, j := int(pick)%n, int(pick)/n%m
		tol := math.Abs(s[i] - q[j])
		switch {
		case nudge < 0:
			tol = math.Nextafter(tol, math.Inf(-1))
		case nudge > 0:
			tol = math.Nextafter(tol, math.Inf(1))
		}
		pe, err := seq.ExtractPAAEnvelope(s)
		if err != nil {
			t.Fatal(err)
		}
		packed := PackEnvelope(pe)
		c := newCascade(q, seq.LInf, 0, nil, false)
		defer c.close()
		if c.segmentsWithin(&packed, tol) {
			return
		}
		if d := dtw.Distance(s, q, seq.LInf); d <= tol {
			t.Fatalf("n=%d m=%d t=%v: segment decision says no, Distance %v", n, m, tol, d)
		}
	})
}

// fuzzValue decodes one fuzz byte: b/16 − 8, plus 0.1 for an odd b.
func fuzzValue(b byte) float64 {
	v := float64(b)/16 - 8
	if b&1 == 1 {
		v += 0.1
	}
	return v
}

var lbPAASink float64

// BenchmarkLBPAA times the banded L∞ LB_PAA — the k-NN walk's key sharpener
// and the cascade's pre-fetch tier — on knn_banded-shaped records: random
// walks of 128, paper-style queries, band 8. One op is one call; the
// query-side reductions are built before the timer starts, as a query
// builds them once for all its calls. `make kernels` runs it with
// -test.cpu 1.
func BenchmarkLBPAA(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	data := synth.RandomWalkSet(rng, 4096, 128)
	envs := make([]PackedEnvelope, len(data))
	for i, s := range data {
		pe, _ := seq.ExtractPAAEnvelope(s)
		envs[i] = PackEnvelope(pe)
	}
	qs := synth.Queries(rng, data, 16)
	pruners := make([]*paaPruner, len(qs))
	for i, q := range qs {
		pruners[i] = newPAAPruner(q, 8)
		pruners[i].lbPAA(&envs[0])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lbPAASink = pruners[(i/len(envs))%len(pruners)].lbPAA(&envs[i%len(envs)])
	}
}
