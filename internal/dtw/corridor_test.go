package dtw

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/seq"
	"repro/internal/synth"
)

// checkCorridor asserts, for each cutoff t ≥ Distance(s, q), that
// WithinKeep(s, t) accepts and CorridorDistance returns Distance's bits, and
// that the windows have the shape corridorMax relies on: both ends
// non-decreasing down the rows, lo ≤ hi, and the last row ending at m−1. r
// is reused across calls, so what one pair leaves in it must not leak into
// the next.
func checkCorridor(t testing.TB, d *Decider, r *Refiner, s, q seq.Sequence, cutoffs ...float64) {
	t.Helper()
	dist := Distance(s, q, seq.LInf)
	for _, cut := range cutoffs {
		if !d.WithinKeep(s, cut, r) {
			t.Fatalf("|s|=%d |q|=%d cutoff %v ≥ Distance %v: WithinKeep said no", len(s), len(q), cut, dist)
		}
		got, ok := r.CorridorDistance(s, q)
		if !ok || math.Float64bits(got) != math.Float64bits(dist) {
			t.Fatalf("|s|=%d |q|=%d cutoff %v: CorridorDistance (%v, %v), Distance %v", len(s), len(q), cut, got, ok, dist)
		}
		n := len(s)
		lo, hi := r.lo[:n], r.hi[:n]
		if hi[n-1] != int32(len(q)-1) {
			t.Fatalf("|s|=%d |q|=%d: last window ends at %d", n, len(q), hi[n-1])
		}
		for i := range lo {
			if lo[i] > hi[i] || (i > 0 && (lo[i] < lo[i-1] || hi[i] < hi[i-1])) {
				t.Fatalf("|s|=%d |q|=%d cutoff %v: windows %v … %v not monotone at row %d", n, len(q), cut, lo, hi, i)
			}
		}
	}
}

// corridorCutoffs is the distance, one ulp above it and extra above it.
func corridorCutoffs(dist, extra float64) []float64 {
	return []float64{dist, math.Nextafter(dist, Inf), dist + extra}
}

// TestCorridorMatchesDistance holds the windowed DP to the dense DP's bits
// on crafted windows, on every shape the pair kernel has an edge at (n = 1,
// odd n with its one-row tail, m = 1, rows on either side of a 64-column
// word) and on pairs of the range workload's shape, through one reused
// Refiner.
func TestCorridorMatchesDistance(t *testing.T) {
	r := AcquireRefiner()
	defer r.Release()
	check := func(s, q seq.Sequence, extra float64) {
		t.Helper()
		d := AcquireDecider(q)
		defer d.Release()
		checkCorridor(t, d, r, s, q, corridorCutoffs(Distance(s, q, seq.LInf), extra)...)
	}

	// Rows 0–1 reach column 0, rows 2–5 do not, so the windows of the pairs
	// (2, 3) and (4, 5) both start at column 1. Cell (4, 1)'s diagonal is
	// then cell (3, 0), outside every window: it must read +Inf, not the
	// cell (1, 0) = 0 the first pair left in that slot, or the pass would
	// skip the expensive rows 2–3 and return 0 for a distance of 1.
	check(seq.Sequence{0, 0, 2, 2, 1, 1}, seq.Sequence{0, 1, 1, 1, 1}, 0)
	// Rows of several runs, whose windows start left of the run the row
	// below continues: q has two valleys, s walks from one to the other.
	check(seq.Sequence{0, 0, 3, 1, 3, 0, 0, 1, 3, 3}, seq.Sequence{0, 3, 0, 0, 3, 1, 3, 3}, 0.5)
	check(seq.Sequence{3, 0, 0, 3, 0, 3, 3, 0, 3}, seq.Sequence{3, 0, 3, 0, 3, 0, 3}, 1)

	rng := rand.New(rand.NewSource(43))
	for _, m := range []int{1, 2, 63, 64, 65, 128, 129} {
		for _, n := range []int{1, 2, 3, 7, 64, 65} {
			q := synth.RandomWalk(rng, m)
			s := synth.Query(rng, []seq.Sequence{q})
			if n <= len(s) {
				s = s[:n]
			} else {
				s = synth.RandomWalk(rng, n)
			}
			check(s, q, rng.Float64())
			check(q, s, rng.Float64())
		}
	}
	for trial := 0; trial < 300; trial++ {
		s, q := workloadPair(rng)
		check(s, q, 0.3*rng.Float64())
	}
}

// TestCorridorRowsCapped: a candidate whose reach rows would pass
// maxReachWords keeps none — WithinKeep still decides, as Within does — so
// CorridorDistance declines it; one row under the cap keeps them.
func TestCorridorRowsCapped(t *testing.T) {
	q := make(seq.Sequence, 1024)
	d := AcquireDecider(q)
	defer d.Release()
	r := AcquireRefiner()
	defer r.Release()
	rows := maxReachWords / d.words
	for _, n := range []int{rows, rows + 1} {
		s := make(seq.Sequence, n)
		if !d.WithinKeep(s, 0, r) {
			t.Fatalf("|s|=%d: WithinKeep said no to a zero-distance pair", n)
		}
		got, ok := r.CorridorDistance(s, q)
		if ok != (n <= rows) || (ok && got != 0) {
			t.Fatalf("|s|=%d (cap %d rows): CorridorDistance (%v, %v)", n, rows, got, ok)
		}
		if len(r.reach) > maxReachWords {
			t.Fatalf("|s|=%d: %d reach words kept, cap %d", n, len(r.reach), maxReachWords)
		}
	}
	if d.WithinKeep(seq.Sequence{1}, 0.5, r) {
		t.Fatal("WithinKeep accepted a pair beyond the cutoff")
	}
	if _, ok := r.CorridorDistance(seq.Sequence{1}, q); ok {
		t.Fatal("CorridorDistance valued a pair the decision rejected")
	}
}

// FuzzCorridorMatchesDistance fuzzes the windowed DP against the dense one
// on FuzzDeciderMatchesDistance's pairs: at the distance, one ulp above it
// and a fuzzer-chosen cutoff above it, CorridorDistance must return
// Distance's bits. `make fuzz-smoke` runs it briefly in CI.
func FuzzCorridorMatchesDistance(f *testing.F) {
	addDeciderSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, q, cell := deciderFuzzInput(raw)
		if s == nil {
			return
		}
		d := AcquireDecider(q)
		defer d.Release()
		r := AcquireRefiner()
		defer r.Release()
		checkCorridor(t, d, r, s, q, corridorCutoffs(Distance(s, q, seq.LInf), float64(cell)/64)...)
	})
}
