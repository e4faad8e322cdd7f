package dtw

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/seq"
	"repro/internal/synth"
)

// checkDecider asserts the Decider's contract on one pair against the dense
// oracle: Within(s, t) == (Distance ≤ t) at the distance, at LB_Kim, one ulp
// either side of each, at every extra threshold and at +0, −0, +Inf and NaN;
// LB_Kim ≤ Distance; and Within(s, LB_Kim) only when the two are the same
// bits.
func checkDecider(t testing.TB, d *Decider, s, q seq.Sequence, extra ...float64) {
	t.Helper()
	dist := Distance(s, q, seq.LInf)
	lb := d.LBKim(s)
	if lb > dist {
		t.Fatalf("|s|=%d |q|=%d: LB_Kim %v > Distance %v", len(s), len(q), lb, dist)
	}
	if d.Within(s, lb) && math.Float64bits(lb) != math.Float64bits(dist) {
		t.Fatalf("|s|=%d |q|=%d: Within(LB_Kim) but LB_Kim %v (%#x) != Distance %v (%#x)",
			len(s), len(q), lb, math.Float64bits(lb), dist, math.Float64bits(dist))
	}
	thresholds := append([]float64{
		dist, math.Nextafter(dist, -1), math.Nextafter(dist, Inf),
		lb, math.Nextafter(lb, -1), math.Nextafter(lb, Inf),
		0, math.Copysign(0, -1), Inf, math.NaN(),
	}, extra...)
	for _, eps := range thresholds {
		if got, want := d.Within(s, eps), dist <= eps; got != want {
			t.Fatalf("|s|=%d |q|=%d eps=%v: Within %v, Distance %v", len(s), len(q), eps, got, dist)
		}
	}
}

// cellCost is the cost the DP charges cell (i, j), and its neighbours: the
// thresholds at which one cell's membership in a row mask flips.
func cellCost(s, q seq.Sequence, i, j int) []float64 {
	c := math.Abs(s[i%len(s)] - q[j%len(q)])
	return []float64{c, math.Nextafter(c, -1), math.Nextafter(c, Inf)}
}

// TestDeciderWordBoundaries runs the decision on queries whose lengths sit
// on either side of each 64-column word boundary, with duplicate values in
// Q, against candidates from one element to past two words — and checks
// that 1 024 elements is the longest query indexed.
func TestDeciderWordBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, m := range []int{1, 63, 64, 65, 128, 129, 192, 1024, 1025} {
		// A random walk on a quarter grid: long queries repeat values.
		q := synth.RandomWalk(rng, m)
		for j := range q {
			q[j] = math.Round(q[j]*4) / 4
		}
		d := AcquireDecider(q)
		if m > maxDeciderLen {
			if d != nil {
				t.Fatalf("m=%d: indexed a query longer than %d", m, maxDeciderLen)
			}
			continue
		}
		if d == nil {
			t.Fatalf("m=%d: no Decider", m)
		}
		cands := []seq.Sequence{q, q[:1], {q[0], q[m-1]}}
		for _, n := range []int{1, 2, 63, 64, 65, 130} {
			s := synth.Query(rng, []seq.Sequence{q})
			cands = append(cands, s[:min(n, len(s))], synth.RandomWalk(rng, n))
		}
		for _, s := range cands {
			checkDecider(t, d, s, q, cellCost(s, q, rng.Int(), rng.Int())...)
		}
		d.Release()
	}

	// Reach that must carry through every word of a row, a wall at column
	// 64 it cannot cross, and a diagonal step from column 63 to 64 that is
	// the only way on.
	for _, m := range []int{65, 129, 1024} {
		step := make(seq.Sequence, m)
		for j := 64; j < m; j++ {
			step[j] = 1
		}
		d := AcquireDecider(step)
		if !d.Within(seq.Sequence{0, 1}, 0.5) || d.Within(seq.Sequence{0, 0.5, 1}, 0.4) {
			t.Fatalf("m=%d: the diagonal into the next word decided wrong", m)
		}
		d.Release()
	}
	for _, m := range []int{65, 129, 1024} {
		flat := make(seq.Sequence, m)
		d := AcquireDecider(flat)
		if !d.Within(seq.Sequence{0}, 0) || !d.Within(seq.Sequence{0, 0, 0}, 0) {
			t.Fatalf("m=%d: a zero row did not reach the last column", m)
		}
		d.Release()
		flat[64] = 1
		d = AcquireDecider(flat)
		if d.Within(seq.Sequence{0, 0}, 0.5) || !d.Within(seq.Sequence{0, 0}, 1) {
			t.Fatalf("m=%d: the wall at column 64 decided wrong", m)
		}
		d.Release()
	}
}

// TestDeciderExactWhateverTheTableGuesses: the bucket table only seeds the
// rank searches, so a table of random ranks — guesses far above and below
// every boundary, rank 0 and m included — must leave every decision exact.
func TestDeciderExactWhateverTheTableGuesses(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		s, q := workloadPair(rng)
		d := AcquireDecider(q)
		for b := range d.table {
			d.table[b] = int32(rng.Intn(len(q) + 1))
		}
		checkDecider(t, d, s, q, 0.3, 0.05)
		d.Release()
	}
}

func TestAcquireDeciderRefuses(t *testing.T) {
	for _, q := range []seq.Sequence{nil, {}, {1, math.NaN()}, {math.Inf(1)}, {0, math.Inf(-1), 0}} {
		if d := AcquireDecider(q); d != nil {
			t.Fatalf("q=%v: indexed", q)
		}
	}
	var d *Decider
	d.Release()
}

// TestDeciderNonFiniteCandidate: a candidate element that is NaN empties
// its row at every tolerance, and one that is ±Inf costs +Inf against every
// q_j, so its row is full at +Inf and empty below — the refiner's verdicts.
func TestDeciderNonFiniteCandidate(t *testing.T) {
	q := seq.Sequence{1, 2, 1}
	d := AcquireDecider(q)
	defer d.Release()
	r := AcquireRefiner()
	defer r.Release()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, s := range []seq.Sequence{{bad}, {1, bad, 1}, {1, 2, bad}} {
			for _, eps := range []float64{0, 0.5, 1, 1e300, Inf, math.NaN()} {
				_, v := r.DistanceWithin(s, q, seq.LInf, eps)
				if got := d.Within(s, eps); got != (v == VerdictWithin) {
					t.Fatalf("s=%v eps=%v: Within %v, refiner verdict %d", s, eps, got, v)
				}
			}
		}
	}
}

// TestDeciderZeroAllocs: a warmed acquire–decide–release cycle does not
// allocate, the route's row-keeping decision and windowed DP included: the
// stack-row decision's row lives on the stack, and the kept rows, windows
// and DP row in the pooled Refiner.
func TestDeciderZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes pool operations allocate")
	}
	rng := rand.New(rand.NewSource(31))
	q := synth.RandomWalk(rng, 192)
	s := synth.Query(rng, []seq.Sequence{q})
	var windowed bool
	cycle := func() {
		d := AcquireDecider(q)
		r := AcquireRefiner()
		d.WithinKeep(s, 0.3, r)
		d.Within(s, d.LBKim(s))
		_, windowed = r.CorridorDistance(s, q)
		r.Release()
		d.Release()
	}
	if cycle(); !windowed {
		t.Fatal("the pair never reached the windowed DP")
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("%v allocs per cycle", n)
	}
}

// deciderFuzzInput decodes fuzz bytes into a finite pair of lengths 1–200
// and a cell: byte 0 sets |s|, byte 1 |q|, byte 2 the cell whose cost is a
// threshold, and the rest are elements on FuzzRefinerMatchesDistance's 1/16
// grid in [-8, 8), reused cyclically (each lap shifted) to fill both sides,
// so Q repeats values whenever it is longer than 256/16 distinct steps.
func deciderFuzzInput(raw []byte) (s, q seq.Sequence, cell int) {
	if len(raw) < 4 {
		return nil, nil, 0
	}
	n, m := 1+int(raw[0])%200, 1+int(raw[1])%200
	elems := raw[3:]
	vals := make(seq.Sequence, n+m)
	for i := range vals {
		b := elems[i%len(elems)] + byte(37*(i/len(elems)))
		vals[i] = float64(b)/16 - 8
	}
	return vals[:n], vals[n:], int(raw[2])
}

// FuzzDeciderMatchesDistance fuzzes the decision against the dense oracle;
// `make fuzz-smoke` runs it briefly in CI.
func FuzzDeciderMatchesDistance(f *testing.F) {
	addDeciderSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, q, cell := deciderFuzzInput(raw)
		if s == nil {
			return
		}
		d := AcquireDecider(q)
		defer d.Release()
		checkDecider(t, d, s, q, cellCost(s, q, cell, cell/len(s))...)
	})
}

// addDeciderSeeds seeds a fuzz target that decodes with deciderFuzzInput:
// crafted pairs across a word boundary, the shortest input, and three
// workload-shaped pairs squeezed onto the byte grid.
func addDeciderSeeds(f *testing.F) {
	f.Add([]byte{10, 4, 0, 128, 144, 128})
	f.Add([]byte{63, 64, 7, 128, 129, 130, 131, 130, 129})
	f.Add([]byte{129, 191, 99, 128, 128, 144, 160, 144})
	f.Add([]byte{0, 0, 0, 0})
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 3; i++ {
		s, q := workloadPair(rng)
		s, q = s[:min(len(s), 199)], q[:min(len(q), 199)]
		raw := []byte{byte(len(s) - 1), byte(len(q) - 1), byte(i)}
		for _, side := range []seq.Sequence{s, q} {
			for _, v := range side {
				raw = append(raw, byte(math.Round((v-s[0])*16)+128))
			}
		}
		f.Add(raw)
	}
}

// FuzzBoundsTableBrackets: the rank table WithinBounds reads holds the exact
// row at every value. For each probe x, the table's low rank at x's bucket
// is ≤ the first rank within t and its high rank ≥ the first rank below −t.
// The probes are s's values, ±Inf, and each q_j ± t with the doubles either
// side, where the exact ranks step. So a table "no" is the searches' "no",
// which the segment pairs of s check directly. `make fuzz-smoke` runs it
// briefly.
func FuzzBoundsTableBrackets(f *testing.F) {
	addDeciderSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, q, cell := deciderFuzzInput(raw)
		if s == nil {
			return
		}
		d := AcquireDecider(q)
		defer d.Release()
		lo, hi := make([]float64, len(s)), make([]float64, len(s))
		for i := range s {
			lo[i], hi[i] = min(s[i], s[min(i+1, len(s)-1)]), max(s[i], s[min(i+1, len(s)-1)])
		}
		var row [maxDeciderLen / 64]uint64
		for _, tol := range cellCost(s, q, cell, cell/len(s)) {
			if !d.WithinBounds(lo, hi, tol) && d.reach(lo, hi, tol, row[:d.words], 0, false) {
				t.Fatalf("t=%v: the table says no, the searches yes", tol)
			}
			if d.boundsT != tol {
				continue // no table at this t: WithinBounds searched
			}
			under := math.Nextafter(-tol, math.Inf(-1))
			probes := append(seq.Sequence{math.Inf(-1), math.Inf(1)}, s...)
			for _, v := range q {
				for _, x := range []float64{v + tol, v - tol} {
					probes = append(probes, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
				}
			}
			for _, x := range probes {
				b := d.boundsBucket(x)
				if l, want := int(d.boundsL[b]), d.firstAtMost(x, tol); l > want {
					t.Fatalf("t=%v x=%v: table low rank %d above the exact %d", tol, x, l, want)
				}
				if h, want := int(d.boundsH[b]), d.firstAtMost(x, under); h < want {
					t.Fatalf("t=%v x=%v: table high rank %d below the exact %d", tol, x, h, want)
				}
			}
		}
	})
}
