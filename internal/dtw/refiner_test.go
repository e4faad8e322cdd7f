package dtw

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/seq"
	"repro/internal/synth"
)

// cascadeBases are the bases the Refiner's windowed pass serves: the
// paper's L∞ only. An additive base runs the reference DP inside the
// Refiner (the "additive" subtest of TestRefinerMatchesDistanceWithin).
var cascadeBases = []seq.Base{seq.LInf}

// allBases are the bases the package-level reference functions serve.
var allBases = []seq.Base{seq.LInf, seq.L1, seq.L2Sq}

// checkRefiner asserts one Refiner.DistanceWithin call against the dense
// oracle: the verdict is VerdictWithin exactly when Distance ≤ eps, and
// then the distance is bit-identical to Distance (and to DistanceWithin).
func checkRefiner(t testing.TB, r *Refiner, s, q seq.Sequence, base seq.Base, eps float64) {
	t.Helper()
	d := Distance(s, q, base)
	got, verdict := r.DistanceWithin(s, q, base, eps)
	if want := d <= eps; want != (verdict == VerdictWithin) {
		t.Fatalf("base %v eps=%v |s|=%d |q|=%d: refiner verdict %d, Distance=%v",
			base, eps, len(s), len(q), verdict, d)
	}
	if verdict == VerdictAbandoned {
		t.Fatalf("base %v eps=%v: the windowed pass abandoned instead of pruning", base, eps)
	}
	wd, wok := DistanceWithin(s, q, base, eps)
	if wok != (verdict == VerdictWithin) {
		t.Fatalf("base %v eps=%v: refiner verdict %d, DistanceWithin ok=%v", base, eps, verdict, wok)
	}
	if wok && (math.Float64bits(got) != math.Float64bits(d) || math.Float64bits(wd) != math.Float64bits(d)) {
		t.Fatalf("base %v eps=%v: refiner d=%v DistanceWithin d=%v Distance d=%v", base, eps, got, wd, d)
	}
}

// workloadPair is one pair of the range workload's shape: a random walk of
// 64..192 steps of ±0.1 and a paper-style perturbed copy of it as the
// query, with a tail dropped half the time so the lengths differ.
func workloadPair(rng *rand.Rand) (s, q seq.Sequence) {
	s = synth.RandomWalk(rng, 64+rng.Intn(129))
	q = synth.Query(rng, []seq.Sequence{s})
	if rng.Intn(2) == 0 {
		q = q[:len(q)-rng.Intn(len(q)/3)]
	}
	return s, q
}

// TestRefinerMatchesDistanceWithin is the refine-tier oracle: across all
// bases, pair shapes and tolerance regimes, the Refiner's verdict must
// agree with the reference DP, and an in-tolerance distance must be
// bit-identical.
func TestRefinerMatchesDistanceWithin(t *testing.T) {
	r := AcquireRefiner()
	defer r.Release()

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, base := range cascadeBases {
			for trial := 0; trial < 400; trial++ {
				s := randSeq(rng, 48)
				q := randSeq(rng, 48)
				d := Distance(s, q, base)
				for _, eps := range []float64{-1, 0, d * 0.5, d * 0.99, d, d * 1.01, d * 2, rng.Float64() * 12} {
					checkRefiner(t, r, s, q, base, eps)
				}
			}
		}
	})

	// Cutoffs at the distance and the doubles either side of it decide the
	// final cell by one ulp; the multiples of d leave rows whose alive
	// cells form several stretches, so the single window holds dead cells
	// between them (asserted, so the case cannot silently stop occurring).
	t.Run("workload-shaped", func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for _, base := range cascadeBases {
			disjoint := 0
			for trial := 0; trial < 60; trial++ {
				s, q := workloadPair(rng)
				d := Distance(s, q, base)
				mat := denseMatrix(s, q, base)
				for _, eps := range []float64{d, math.Nextafter(d, 0), math.Nextafter(d, Inf), 0.30, d * 0.8, d * 1.1, d * 1.6} {
					disjoint += disjointRows(mat, eps)
					checkRefiner(t, r, s, q, base, eps)
				}
			}
			if disjoint == 0 {
				t.Fatalf("base %v: no row with two alive stretches; in-window dead cells went unexercised", base)
			}
		}
	})

	// A reused Refiner must never read what an earlier candidate left in
	// its rows: zero bits are the most tempting stale value (distance 0).
	t.Run("reused", func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		long, longQ := workloadPair(rng)
		short, shortQ := seq.Sequence{1, 2, 3, 2, 1}, seq.Sequence{1, 3, 1}
		own := &Refiner{}
		own.rows(1) // an endpoint-pruned first call would leave nothing to poison
		for _, base := range cascadeBases {
			d := Distance(long, longQ, base)
			for _, eps := range []float64{d * 0.7, d, d * 1.5} {
				checkRefiner(t, own, long, longQ, base, eps)
				clear(own.prev[1:])
				clear(own.cur[1:])
				checkRefiner(t, own, short, shortQ, base, 2)
				checkRefiner(t, own, long, longQ, base, eps)
			}
		}
	})

	// The window pinned at column 0 until the last row, reaching column
	// m-1 in row 1, and spanning the whole row from row 0 on.
	t.Run("window-edges", func(t *testing.T) {
		pairs := [][2]seq.Sequence{
			{{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, {0, 0, 0, 0, 1}},
			{{0, 1, 1, 1, 1, 1}, {0, 1}},
			{{0, 0, 0}, {0, 0, 0}},
			{{0, 1, 0, 1, 0, 1}, {0, 1, 0}},
			{{3}, {3}},
		}
		for _, base := range cascadeBases {
			for _, p := range pairs {
				for _, eps := range []float64{0, 0.5, 1, 2, 100} {
					checkRefiner(t, r, p[0], p[1], base, eps)
					checkRefiner(t, r, p[1], p[0], base, eps)
				}
			}
		}
	})

	// An additive base has no windowed pass: the Refiner hands it to the
	// reference DP, so its verdict is Within or Abandoned (never a corridor
	// prune) and its distance the reference's bits, banded or not.
	t.Run("additive", func(t *testing.T) {
		rng := rand.New(rand.NewSource(53))
		for _, base := range []seq.Base{seq.L1, seq.L2Sq} {
			for trial := 0; trial < 200; trial++ {
				s, q := randSeq(rng, 40), randSeq(rng, 40)
				if trial%2 == 0 {
					s, q = workloadPair(rng)
				}
				band := rng.Intn(10) - 1
				d := BandDistance(s, q, base, band)
				for _, eps := range []float64{-1, 0, d * 0.5, math.Nextafter(d, 0), d, d * 1.5, Inf} {
					got, verdict := r.BandDistanceWithin(s, q, base, band, eps)
					want, ok := BandDistanceWithin(s, q, base, band, eps)
					if verdict != VerdictWithin && verdict != VerdictAbandoned {
						t.Fatalf("base %v band %d eps=%v: verdict %d, want Within or Abandoned", base, band, eps, verdict)
					}
					if ok != (verdict == VerdictWithin) || math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("base %v band %d eps=%v: refiner (%v, %d), reference (%v, %v)", base, band, eps, got, verdict, want, ok)
					}
					if band < 0 {
						gotU, vU := r.DistanceWithin(s, q, base, eps)
						wantU, okU := DistanceWithin(s, q, base, eps)
						if okU != (vU == VerdictWithin) || math.Float64bits(gotU) != math.Float64bits(wantU) {
							t.Fatalf("base %v eps=%v: DistanceWithin refiner (%v, %d), reference (%v, %v)", base, eps, gotU, vU, wantU, okU)
						}
					}
				}
			}
		}
	})
}

// refinerFuzzInput decodes fuzz bytes into a finite pair, cutoff and base:
// byte 0 picks the base from cascadeBases, byte 1 the split between s and
// q, byte 2 the cutoff in sixteenths, the rest are elements on a 1/16 grid
// in [-8, 8).
func refinerFuzzInput(raw []byte) (s, q seq.Sequence, base seq.Base, eps float64) {
	if len(raw) < 3 {
		return nil, nil, seq.LInf, 0
	}
	base = cascadeBases[int(raw[0])%len(cascadeBases)]
	eps = float64(raw[2]) / 16
	elems := raw[3:]
	if len(elems) > 256 {
		elems = elems[:256]
	}
	vals := make(seq.Sequence, len(elems))
	for i, b := range elems {
		vals[i] = float64(b)/16 - 8
	}
	cut := int(raw[1]) % (len(vals) + 1)
	return vals[:cut], vals[cut:], base, eps
}

// FuzzRefinerMatchesDistance fuzzes the windowed kernel against the dense
// oracle on fuzzer-chosen finite pairs and cutoffs; `make fuzz-smoke` runs
// it briefly in CI.
func FuzzRefinerMatchesDistance(f *testing.F) {
	f.Add([]byte{0, 11, 0, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 144, 128, 128, 128, 128, 144})
	f.Add([]byte{1, 2, 8, 128, 144, 128, 144, 144, 144, 144, 144})
	f.Add([]byte{2, 3, 40, 128, 144, 128, 144, 128, 144, 128, 144, 128})
	f.Add([]byte{0, 1, 0, 176, 176})
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 3; i++ {
		// A workload-shaped pair cut to 120 elements a side and squeezed
		// onto the byte grid.
		s, q := workloadPair(rng)
		s, q = s[:min(len(s), 120)], q[:min(len(q), 120)]
		raw := []byte{byte(i), byte(len(s)), 5}
		for _, side := range []seq.Sequence{s, q} {
			for _, v := range side {
				raw = append(raw, byte(math.Round((v-s[0])*16)+128))
			}
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, q, base, eps := refinerFuzzInput(raw)
		r := AcquireRefiner()
		defer r.Release()
		checkRefiner(t, r, s, q, base, eps)
		if !s.Empty() && !q.Empty() {
			// The pair's own distance is the cutoff that decides by one bit.
			checkRefiner(t, r, s, q, base, Distance(s, q, base))
		}
	})
}

// TestDistancesNeverNegativeZero: |−0 − 0| must come out as +0 from every
// kernel, so no distance prints as "-0" (the branchy `if e < 0 { e = -e }`
// left −0 alone).
func TestDistancesNeverNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	s, q := seq.Sequence{negZero, negZero}, seq.Sequence{0, 0}
	r := AcquireRefiner()
	defer r.Release()
	for _, base := range allBases {
		for _, p := range [][2]seq.Sequence{{s, q}, {q, s}} {
			if d := Distance(p[0], p[1], base); d != 0 || math.Signbit(d) {
				t.Errorf("base %v: Distance = %v (signbit %v), want +0", base, d, math.Signbit(d))
			}
			if d, v := r.DistanceWithin(p[0], p[1], base, 0); v != VerdictWithin || d != 0 || math.Signbit(d) {
				t.Errorf("base %v: Refiner.DistanceWithin = (%v, %d) (signbit %v), want (+0, within)", base, d, v, math.Signbit(d))
			}
			if d, ok := DistanceWithin(p[0], p[1], base, 0); !ok || math.Signbit(d) {
				t.Errorf("base %v: DistanceWithin = (%v, %v), want (+0, true)", base, d, ok)
			}
			if d := BandDistance(p[0], p[1], base, 1); d != 0 || math.Signbit(d) {
				t.Errorf("base %v: BandDistance = %v (signbit %v), want +0", base, d, math.Signbit(d))
			}
		}
		// A −0 cutoff is a valid zero tolerance, not a huge bit pattern.
		// (Under L∞ the windowed pass prunes; an additive base's reference
		// DP abandons.)
		if _, v := r.DistanceWithin(seq.Sequence{1, 2}, seq.Sequence{1, 3}, base, negZero); v == VerdictWithin {
			t.Errorf("base %v: cutoff -0 admitted a distance-1 pair (verdict %d)", base, v)
		}
		if _, v := r.DistanceWithin(s, q, base, negZero); v != VerdictWithin {
			t.Errorf("base %v: cutoff -0 rejected a distance-0 pair (verdict %d)", base, v)
		}
	}
}

func TestRefinerEdgeCases(t *testing.T) {
	r := AcquireRefiner()
	defer r.Release()
	empty := seq.Sequence{}
	one := seq.Sequence{1}
	if d, v := r.DistanceWithin(empty, empty, seq.LInf, 0); v != VerdictWithin || d != 0 {
		t.Fatalf("empty/empty: got (%v, %d)", d, v)
	}
	if _, v := r.DistanceWithin(empty, empty, seq.LInf, -1); v != VerdictPruned {
		t.Fatalf("empty/empty negative eps: got verdict %d", v)
	}
	if _, v := r.DistanceWithin(empty, one, seq.LInf, 100); v != VerdictPruned {
		t.Fatalf("empty/one: got verdict %d", v)
	}
	if _, v := r.DistanceWithin(one, one, seq.LInf, -0.5); v != VerdictPruned {
		t.Fatalf("negative eps: got verdict %d", v)
	}
	if d, v := r.DistanceWithin(one, seq.Sequence{1, 1, 1}, seq.L2Sq, 0); v != VerdictWithin || d != 0 {
		t.Fatalf("exact zero-distance pair: got (%v, %d)", d, v)
	}
	// A difference near ±1.8e308 overflows to +Inf, and with band 0 every
	// predecessor of the last cell is then +Inf. The reference computes that
	// cell (+Inf ≤ +Inf keeps its row alive) instead of skipping it, so at
	// cutoff +Inf both report distance +Inf as within, as DESIGN.md §10 says.
	big := seq.Sequence{0, 1.7e308, 0}
	small := seq.Sequence{0, -1.7e308, 0}
	if d, ok := BandDistanceWithin(big, small, seq.LInf, 0, Inf); !ok || d != Inf {
		t.Fatalf("overflowing pair: reference (%v, %v), want (+Inf, true)", d, ok)
	}
	if d, v := r.BandDistanceWithin(big, small, seq.LInf, 0, Inf); v != VerdictWithin || d != Inf {
		t.Fatalf("overflowing pair: refiner (%v, %d), want (+Inf, within)", d, v)
	}
}

// TestLBKeoghSafeSoundness: the safe bound never exceeds the unconstrained
// distance, for any base and any length combination — so pruning on it can
// never falsely dismiss.
func TestLBKeoghSafeSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, base := range allBases {
		for trial := 0; trial < 400; trial++ {
			s := randSeq(rng, 40)
			q := randSeq(rng, 40)
			env := GlobalEnvelope(q)
			lb, err := LBKeoghSafe(s, env, base, -1)
			if err != nil {
				t.Fatalf("global envelope must always be sound: %v", err)
			}
			d := Distance(s, q, base)
			if lb > d {
				t.Fatalf("base %v |s|=%d |q|=%d: LBKeoghSafe=%v > Dtw=%v", base, len(s), len(q), lb, d)
			}
			// A banded (non-global) envelope is not sound for the
			// unconstrained distance: the guard must refuse it loudly.
			banded := NewEnvelope(q, 2)
			if got, err := LBKeoghSafe(s, banded, base, -1); err != ErrUnsoundBound || got != 0 {
				t.Fatalf("banded envelope for unconstrained query: got (%v, %v), want (0, ErrUnsoundBound)", got, err)
			}
		}
	}
}

// TestLBKeoghBandedUnsoundForUnconstrained documents why the guard exists:
// the classic banded LB_Keogh can exceed the unconstrained distance, so
// using it as a prune for the paper's Dtw would falsely dismiss.
func TestLBKeoghBandedUnsoundForUnconstrained(t *testing.T) {
	s := seq.Sequence{0, 0, 0, 0, 0, 0, 0, 5}
	q := seq.Sequence{0, 5, 5, 5, 5, 5, 5, 5}
	if d := Distance(s, q, seq.LInf); d != 0 {
		t.Fatalf("warp-equivalent pair should have Dtw 0, got %v", d)
	}
	env := NewEnvelope(q, 1)
	if lb := LBKeogh(s, env, seq.LInf); lb <= 0 {
		t.Skipf("expected the banded bound to overshoot here, got %v", lb)
	}
	// The same pair through the safe path: no false dismissal possible.
	if lb, err := LBKeoghSafe(s, GlobalEnvelope(q), seq.LInf, -1); err != nil || lb > 0 {
		t.Fatalf("LBKeoghSafe overshot a zero-distance pair: (%v, %v)", lb, err)
	}
	if lb, err := LBKeoghSafe(s, env, seq.LInf, -1); err != ErrUnsoundBound || lb != 0 {
		t.Fatalf("banded envelope for unconstrained query must error, got (%v, %v)", lb, err)
	}
}

// TestGlobalEnvelopeMatchesYiSide: the full-envelope Keogh bound is exactly
// the S-side of LBYi, which is what lets the cascade split Yi's bound into
// two passes without changing any value.
func TestGlobalEnvelopeMatchesYiSide(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, base := range allBases {
		for trial := 0; trial < 200; trial++ {
			s := randSeq(rng, 32)
			q := randSeq(rng, 32)
			env := GlobalEnvelope(q)
			kS, err := LBKeoghSafe(s, env, base, -1)
			if err != nil {
				t.Fatalf("global envelope must always be sound: %v", err)
			}
			yi := LBYi(s, q, base)
			if kS > yi {
				t.Fatalf("base %v: S-side %v exceeds two-sided LBYi %v", base, kS, yi)
			}
		}
	}
}

// TestRefinerZeroAllocs: a warmed Refiner must evaluate candidates without
// allocating — the cascade holds one per query across all candidates, and
// the scans and the public distance functions call it at +Inf (the full
// distance) or at their tolerance.
func TestRefinerZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes pool operations allocate")
	}
	rng := rand.New(rand.NewSource(43))
	s := make(seq.Sequence, 512)
	q := make(seq.Sequence, 512)
	for i := range s {
		s[i] = rng.Float64()
	}
	for i := range q {
		q[i] = rng.Float64()
	}
	r := AcquireRefiner()
	defer r.Release()
	for _, base := range cascadeBases {
		base := base
		r.DistanceWithin(s, q, base, 0.35) // grow the rows to this shape
		if n := testing.AllocsPerRun(100, func() {
			r.DistanceWithin(s, q, base, 0.35)
			r.BandDistanceWithin(s, q, base, 8, 0.35)
			r.BandDistanceWithin(s, q, base, -1, Inf)
			r.BandDistanceWithin(s, q, base, -1, 0.35)
		}); n != 0 {
			t.Fatalf("base %v: %v allocs/op in steady state", base, n)
		}
	}
}

// denseMatrix is the full DP matrix behind Distance, rows over the longer
// sequence as in the kernels.
func denseMatrix(s, q seq.Sequence, base seq.Base) [][]float64 {
	if len(q) > len(s) {
		s, q = q, s
	}
	mat := make([][]float64, len(s))
	for i := range mat {
		mat[i] = make([]float64, len(q))
		for j := range mat[i] {
			e := base.Elem(s[i], q[j])
			best := Inf
			if i > 0 {
				best = mat[i-1][j]
			}
			if j > 0 {
				best = min(best, mat[i][j-1])
			}
			if i > 0 && j > 0 {
				best = min(best, mat[i-1][j-1])
			}
			if i == 0 && j == 0 {
				mat[i][j] = e
			} else {
				mat[i][j] = base.Combine(e, best)
			}
		}
	}
	return mat
}

// disjointRows counts the rows of mat whose cells ≤ eps form two or more
// separate stretches — the rows where a single window holds dead cells.
func disjointRows(mat [][]float64, eps float64) int {
	rows := 0
	for _, row := range mat {
		stretches := 0
		for j, v := range row {
			if v <= eps && (j == 0 || row[j-1] > eps) {
				stretches++
			}
		}
		if stretches >= 2 {
			rows++
		}
	}
	return rows
}
