package dtw

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/seq"
)

// checkRefinerBand asserts one Refiner.BandDistanceWithin call against the
// reference loop: the verdict is VerdictWithin exactly when the package-level
// BandDistanceWithin accepts, a within distance carries the bits of both
// BandDistanceWithin and BandDistance, and a rejection returns +Inf.
func checkRefinerBand(t testing.TB, r *Refiner, s, q seq.Sequence, base seq.Base, band int, eps float64) {
	t.Helper()
	wd, wok := BandDistanceWithin(s, q, base, band, eps)
	got, verdict := r.BandDistanceWithin(s, q, base, band, eps)
	if wok != (verdict == VerdictWithin) {
		t.Fatalf("base %v band=%d eps=%v |s|=%d |q|=%d: refiner verdict %d, BandDistanceWithin=(%v, %v)",
			base, band, eps, len(s), len(q), verdict, wd, wok)
	}
	if verdict == VerdictAbandoned {
		t.Fatalf("base %v band=%d eps=%v: the windowed pass abandoned instead of pruning", base, band, eps)
	}
	if !wok {
		if !math.IsInf(got, 1) {
			t.Fatalf("base %v band=%d eps=%v: rejected with distance %v, want +Inf", base, band, eps, got)
		}
		return
	}
	d := BandDistance(s, q, base, band)
	if math.Float64bits(got) != math.Float64bits(wd) || math.Float64bits(got) != math.Float64bits(d) {
		t.Fatalf("base %v band=%d eps=%v |s|=%d |q|=%d: refiner d=%v BandDistanceWithin d=%v BandDistance d=%v",
			base, band, eps, len(s), len(q), got, wd, d)
	}
}

// bandCutoffs are the tolerances every banded pair is checked at: the ones
// with their own branch in the entry checks (+Inf, which turns the call into
// BandDistance, −0, NaN, a negative), the pair's own banded distance and the
// doubles either side of it, which decide the final cell by one bit, and
// multiples that leave partly dead rows.
func bandCutoffs(s, q seq.Sequence, base seq.Base, band int) []float64 {
	d := BandDistance(s, q, base, band)
	return []float64{Inf, math.Copysign(0, -1), math.NaN(), -1, 0,
		d, math.Nextafter(d, 0), math.Nextafter(d, Inf), d * 0.5, d * 0.9, d * 1.3}
}

// TestRefinerBandMatchesReference is the banded refine oracle on a table of
// the band's corners and on random pairs.
func TestRefinerBandMatchesReference(t *testing.T) {
	r := AcquireRefiner()
	defer r.Release()

	// Equal lengths (the integer diagonal), unequal ones either way round
	// (no transposition: the band is not symmetric), slopes steep enough
	// that the half-width floor ⌈slope⌉/2 overrides the caller's band, a
	// single row or column (no band applies), and bands from 0 to beyond
	// the row.
	t.Run("corners", func(t *testing.T) {
		ramp := func(n int, step float64) seq.Sequence {
			s := make(seq.Sequence, n)
			for i := range s {
				s[i] = float64(i%7)*step - float64(i)/8
			}
			return s
		}
		pairs := [][2]seq.Sequence{
			{ramp(12, 0.5), ramp(12, 0.75)},
			{ramp(3, 0.5), ramp(20, 0.25)},     // slope 9.5: floor 5
			{ramp(20, 0.25), ramp(3, 0.5)},     // slope < 1
			{ramp(2, 1), ramp(64, 0.125)},      // slope 63: floor 32
			{ramp(9, 0.5), ramp(14, 0.5)},      // slope 1.625: floor 1
			{ramp(1, 1), ramp(9, 0.5)},         // one row
			{ramp(9, 0.5), ramp(1, 1)},         // one column
			{{3}, {3}},                         // one cell
			{{0, 0, 0, 0, 5}, {0, 5, 5, 5, 5}}, // warp-equivalent, band-separated
			{{}, {}},
			{{}, {1, 2}},
		}
		for _, base := range cascadeBases {
			for _, p := range pairs {
				for _, band := range []int{-1, 0, 1, 2, 5, 11, 12, 100} {
					for _, eps := range bandCutoffs(p[0], p[1], base, band) {
						checkRefinerBand(t, r, p[0], p[1], base, band, eps)
					}
				}
			}
		}
	})

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		for _, base := range cascadeBases {
			for trial := 0; trial < 600; trial++ {
				s := randSeq(rng, 48)
				q := randSeq(rng, 48)
				if trial%3 == 0 {
					q = q[:min(len(q), len(s))]
					s = s[:len(q)] // the workload's shape: equal lengths
				}
				band := rng.Intn(12) - 1
				for _, eps := range append(bandCutoffs(s, q, base, band), rng.Float64()*12) {
					checkRefinerBand(t, r, s, q, base, band, eps)
				}
			}
		}
	})

	// A banded and an unbanded pass share the Refiner's rows; neither may
	// read what the other (or an earlier candidate) left there.
	t.Run("reused", func(t *testing.T) {
		rng := rand.New(rand.NewSource(37))
		long, longQ := workloadPair(rng)
		short, shortQ := seq.Sequence{1, 2, 3, 2, 1}, seq.Sequence{1, 3, 1, 2, 1}
		own := &Refiner{}
		own.rows(1)
		for _, base := range cascadeBases {
			d := BandDistance(long, longQ, base, 8)
			for _, eps := range []float64{d * 0.7, d, d * 1.5} {
				checkRefinerBand(t, own, long, longQ, base, 8, eps)
				clear(own.prev[1:])
				clear(own.cur[1:])
				checkRefinerBand(t, own, short, shortQ, base, 1, 2)
				checkRefiner(t, own, long, longQ, base, eps)
				checkRefinerBand(t, own, long, longQ, base, 8, eps)
			}
		}
	})
}

// FuzzRefinerBandMatchesReference fuzzes the banded windowed kernel against
// the reference loop. Byte 0 picks the base from cascadeBases, byte 1 the
// split between s and q (so lengths are unequal either way round, down to a
// single row or column, and slopes reach the half-width floor), byte 2 the
// cutoff — 255, 254, 253 and 252 are +Inf, NaN, −0 and −1, anything else
// sixteenths — byte 3 the band from −1 up past the row, the rest elements
// on a 1/16 grid in [−8, 8). Every input is also checked at +Inf and at the
// pair's own banded distance. `make fuzz-smoke` runs it briefly in CI.
func FuzzRefinerBandMatchesReference(f *testing.F) {
	f.Add([]byte{0, 4, 8, 2, 128, 144, 128, 144, 128, 144, 128, 144})
	f.Add([]byte{1, 2, 255, 1, 128, 160, 128, 129, 130, 131, 132, 133, 134, 135, 136, 137, 138, 139, 140})
	f.Add([]byte{2, 12, 40, 0, 128, 144, 128, 144, 128, 144, 128, 144, 128, 144, 128, 144, 130, 131})
	f.Add([]byte{0, 1, 254, 9, 176, 176, 180})
	f.Add([]byte{1, 3, 253, 200, 128, 128, 128, 128, 128, 128})
	f.Add([]byte{2, 5, 252, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 4 {
			return
		}
		// refinerFuzzInput reads bytes 0..2 and takes the elements from
		// byte 3 on; the band byte is cut out of its view.
		s, q, base, eps := refinerFuzzInput(append(append([]byte{}, raw[:3]...), raw[4:]...))
		switch raw[2] {
		case 255:
			eps = Inf
		case 254:
			eps = math.NaN()
		case 253:
			eps = math.Copysign(0, -1)
		case 252:
			eps = -1
		}
		band := int(raw[3]) - 1
		r := AcquireRefiner()
		defer r.Release()
		checkRefinerBand(t, r, s, q, base, band, eps)
		checkRefinerBand(t, r, s, q, base, band, Inf)
		checkRefinerBand(t, r, s, q, base, band, BandDistance(s, q, base, band))
	})
}
