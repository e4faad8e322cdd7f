package dtw

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/seq"
)

// checkEnvelope compares both envelopes LBImproved builds with the scan
// oracle on one (q, r): NewEnvelope, and the envelope of the projection
// pass 2 takes — q clamped into its own envelope is q, so that envelope must
// be q's too.
func checkEnvelope(t *testing.T, q seq.Sequence, r int) {
	t.Helper()
	got := NewEnvelope(q, r)
	want := newEnvelopeScan(q, r)
	if got.band != want.band || got.full != want.full {
		t.Fatalf("r=%d: metadata mismatch: got (%d,%v) want (%d,%v)",
			r, got.band, got.full, want.band, want.full)
	}
	proj := NewEnvelope(projection(q, got), r)
	for i := range q {
		if got.Lower[i] != want.Lower[i] || got.Upper[i] != want.Upper[i] {
			t.Fatalf("r=%d |q|=%d i=%d: block (%v,%v) != scan (%v,%v)",
				r, len(q), i, got.Lower[i], got.Upper[i], want.Lower[i], want.Upper[i])
		}
		if proj.Lower[i] != want.Lower[i] || proj.Upper[i] != want.Upper[i] {
			t.Fatalf("r=%d |q|=%d i=%d: second-pass envelope (%v,%v) != scan (%v,%v)",
				r, len(q), i, proj.Lower[i], proj.Upper[i], want.Lower[i], want.Upper[i])
		}
	}
}

// TestNewEnvelopeMatchesScanOracle: the O(n) block construction must equal
// the naive O(n·r) rescan it replaced, across lengths and band widths
// (including r = 0, r ≥ n, and negative r, which clamps to 0).
func TestNewEnvelopeMatchesScanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 500; trial++ {
		checkEnvelope(t, randSeq(rng, 80), rng.Intn(24)-2)
	}
	for n := 1; n <= 12; n++ { // every alignment of the blocks against both ends
		q := make(seq.Sequence, n)
		for i := range q {
			q[i] = float64(rng.Intn(9))
		}
		for r := 0; r <= 14; r++ {
			checkEnvelope(t, q, r)
		}
	}
}

// FuzzEnvelopeDeque cross-checks the sliding min/max envelope (the block
// algorithm that replaced the monotonic deques) against the scan oracle on
// fuzzer-chosen inputs; `make fuzz-smoke` runs it briefly in CI.
func FuzzEnvelopeDeque(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 0, 9}, 2)
	f.Add([]byte{255, 0, 255, 0}, 0)
	f.Add([]byte{7}, 100)
	f.Fuzz(func(t *testing.T, raw []byte, r int) {
		if len(raw) > 256 {
			raw = raw[:256]
		}
		if r > 1<<20 {
			r = 1 << 20
		}
		q := make(seq.Sequence, len(raw))
		for i, b := range raw {
			q[i] = float64(b)/16 - 8
		}
		checkEnvelope(t, q, r)
	})
}

// FuzzBandedBoundChain fuzzes the banded bound chain — LBKeogh ≤
// LB_Improved ≤ BandDistance, and BandDistance ≥ Distance, the first link
// being the banded cascade's tier — on fuzzer-chosen equal-length pairs
// under every base; `make fuzz-smoke` runs it briefly in CI.
func FuzzBandedBoundChain(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{4, 3, 2, 1}, 1)
	f.Add([]byte{0, 255, 0, 255, 128}, []byte{128, 128, 128, 128, 128}, 2)
	f.Add([]byte{9}, []byte{200}, 0)
	f.Fuzz(func(t *testing.T, sraw, qraw []byte, r int) {
		n := len(sraw)
		if len(qraw) < n {
			n = len(qraw)
		}
		if n == 0 {
			return
		}
		if n > 128 {
			n = 128
		}
		if r < 0 {
			r = -r
		}
		r %= n + 4
		s := make(seq.Sequence, n)
		q := make(seq.Sequence, n)
		for i := 0; i < n; i++ {
			s[i] = float64(sraw[i])/16 - 8
			q[i] = float64(qraw[i])/16 - 8
		}
		for _, base := range allBases {
			env := NewEnvelope(q, r)
			keogh := LBKeogh(s, env, base)
			improved, err := LBImproved(s, q, env, base, r)
			if err != nil {
				t.Fatalf("LBImproved on a matching banded envelope: %v", err)
			}
			bd := BandDistance(s, q, base, r)
			if keogh > improved+1e-9 {
				t.Fatalf("base %v r=%d n=%d: LBKeogh=%v > LBImproved=%v", base, r, n, keogh, improved)
			}
			if improved > bd+1e-9 {
				t.Fatalf("base %v r=%d n=%d: LBImproved=%v > BandDistance=%v", base, r, n, improved, bd)
			}
			if d := Distance(s, q, base); bd < d {
				t.Fatalf("base %v r=%d n=%d: BandDistance=%v < Distance=%v", base, r, n, bd, d)
			}
		}
	})
}

// TestGlobalBoundsBelowKim: under the paper's L∞ base the two global bounds
// sit below the 4-tuple bound the index walk applies, for any pair of
// lengths — LBKeogh(s, GlobalEnvelope(q)) ≤ LBYi(s, q) ≤ LBKim(s, q), with
// no rounding slack, because LBYi is exactly max(|ΔGreatest|, |ΔSmallest|),
// two of LBKim's four components. A candidate the walk admitted at
// LBKim ≤ ε can therefore never be dismissed by either, which is why the
// refine cascade has no global-envelope Keogh tier and no Yi tier.
func TestGlobalBoundsBelowKim(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 5000; trial++ {
		s := randSeq(rng, 48)
		q := randSeq(rng, 48)
		keogh, err := LBKeoghSafe(s, GlobalEnvelope(q), seq.LInf, -1)
		if err != nil {
			t.Fatalf("global envelope must always be sound: %v", err)
		}
		yi := LBYi(s, q, seq.LInf)
		fs, fq := seq.MustFeature(s), seq.MustFeature(q)
		if want := math.Max(math.Abs(fs.Greatest-fq.Greatest), math.Abs(fs.Smallest-fq.Smallest)); yi != want {
			t.Fatalf("trial %d: LBYi=%v, max(|ΔGreatest|, |ΔSmallest|)=%v", trial, yi, want)
		}
		if kim := LBKim(s, q); keogh > yi || yi > kim {
			t.Fatalf("trial %d: chain broken: LBKeogh(global)=%v LBYi=%v LBKim=%v", trial, keogh, yi, kim)
		}
	}
}

// TestBandDistanceAtLeastUnconstrained: a band only removes permissible
// warpings, so BandDistance ≥ Distance for every r — the fact that keeps all
// unconstrained lower bounds sound for banded queries.
func TestBandDistanceAtLeastUnconstrained(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, base := range allBases {
		for trial := 0; trial < 300; trial++ {
			s := randSeq(rng, 48)
			q := randSeq(rng, 48)
			r := rng.Intn(12)
			bd := BandDistance(s, q, base, r)
			d := Distance(s, q, base)
			if bd < d {
				t.Fatalf("base %v r=%d: BandDistance=%v < Distance=%v", base, r, bd, d)
			}
			if math.IsInf(bd, 1) {
				t.Fatalf("base %v r=%d |s|=%d |q|=%d: banded distance is +Inf", base, r, len(s), len(q))
			}
		}
	}
}

// TestBandedBoundChain: for random equal-length s, q and band r,
// LBKeogh(s, Env_r(q)) ≤ LB_Improved ≤ BandDistance(s, q, r) under every
// base; the banded cascade's tier relies on the outer inequality.
func TestBandedBoundChain(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, base := range allBases {
		for trial := 0; trial < 400; trial++ {
			n := 1 + rng.Intn(64)
			s := make(seq.Sequence, n)
			q := make(seq.Sequence, n)
			for i := range s {
				s[i] = rng.NormFloat64() * 2
				q[i] = rng.NormFloat64() * 2
			}
			r := rng.Intn(10)
			env := NewEnvelope(q, r)
			keogh := LBKeogh(s, env, base)
			improved, err := LBImproved(s, q, env, base, r)
			if err != nil {
				t.Fatalf("LBImproved on a matching banded envelope: %v", err)
			}
			bd := BandDistance(s, q, base, r)
			if keogh > improved+1e-9 {
				t.Fatalf("base %v r=%d n=%d: LBKeogh=%v > LBImproved=%v", base, r, n, keogh, improved)
			}
			if improved > bd+1e-9 {
				t.Fatalf("base %v r=%d n=%d: LBImproved=%v > BandDistance=%v", base, r, n, improved, bd)
			}
			// The safe router must agree with the direct banded bound when
			// the caller's band matches.
			safe, err := LBKeoghSafe(s, env, base, r)
			if err != nil || safe != keogh {
				t.Fatalf("LBKeoghSafe(band=%d) = (%v, %v), want (%v, nil)", r, safe, err, keogh)
			}
		}
	}
}

// TestLBKeoghSafeUnsoundCombinations: every combination with no sound bound
// must surface ErrUnsoundBound instead of a silent 0.
func TestLBKeoghSafeUnsoundCombinations(t *testing.T) {
	q := seq.Sequence{0, 1, 2, 3, 4, 5, 6, 7}
	s := seq.Sequence{7, 6, 5, 4, 3, 2, 1, 0}
	short := seq.Sequence{1, 2, 3}
	env := NewEnvelope(q, 2)
	cases := []struct {
		name string
		s    seq.Sequence
		band int
	}{
		{"unconstrained query", s, -1},
		{"band mismatch", s, 3},
		{"length mismatch", short, 2},
	}
	for _, tc := range cases {
		if lb, err := LBKeoghSafe(tc.s, env, seq.LInf, tc.band); err != ErrUnsoundBound || lb != 0 {
			t.Fatalf("%s: got (%v, %v), want (0, ErrUnsoundBound)", tc.name, lb, err)
		}
	}
	// LBImproved enforces the same preconditions.
	if _, err := LBImproved(s, q, env, seq.LInf, 3); err != ErrUnsoundBound {
		t.Fatalf("LBImproved band mismatch: got %v, want ErrUnsoundBound", err)
	}
	if _, err := LBImproved(short, q, env, seq.L1, 2); err != ErrUnsoundBound {
		t.Fatalf("LBImproved length mismatch: got %v, want ErrUnsoundBound", err)
	}
	if _, err := LBImproved(s, q, GlobalEnvelope(q), seq.L1, 2); err != ErrUnsoundBound {
		t.Fatalf("LBImproved on a global envelope: got %v, want ErrUnsoundBound", err)
	}
}

// TestBandDistanceWithinMatchesOracle: the early-abandoning banded DP must
// agree with BandDistance exactly — bit-identical values when within the
// tolerance, and never a false abandon.
func TestBandDistanceWithinMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, base := range allBases {
		for trial := 0; trial < 400; trial++ {
			s := randSeq(rng, 40)
			q := randSeq(rng, 40)
			r := rng.Intn(8)
			d := BandDistance(s, q, base, r)
			eps := d * (0.5 + rng.Float64()) // straddles d from both sides
			if trial%7 == 0 {
				eps = d // boundary: within must hold at equality
			}
			got, ok := BandDistanceWithin(s, q, base, r, eps)
			if d <= eps {
				if !ok || got != d {
					t.Fatalf("base %v r=%d eps=%v: got (%v,%v), want exact %v", base, r, eps, got, ok, d)
				}
			} else if ok {
				t.Fatalf("base %v r=%d: within reported ok for d=%v > eps=%v", base, r, d, eps)
			}
		}
	}
}
