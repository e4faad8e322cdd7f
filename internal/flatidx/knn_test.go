package flatidx

import (
	"math/rand"
	"testing"

	"repro/internal/seq"
)

func linf(e *Entry, p *[4]float64) float64 {
	max := 0.0
	for d := 0; d < 4; d++ {
		g := e.Point[d] - p[d]
		if g < 0 {
			g = -g
		}
		if g > max {
			max = g
		}
	}
	return max
}

// idLB is a deterministic stand-in for the search layer's LB_PAA-by-ID
// sharpener in the walk tests: any nonnegative function of the ID
// exercises the re-key logic the same way the real bound does.
func idLB(id seq.ID) float64 { return float64(id%7) * 1.5 }

// TestNearestWalkEnvKeys checks the two-level frontier's contract on a
// snapshot ∪ delta index: the emitted key stream is non-decreasing, every
// emitted key equals max(L∞ mindist, sharpen(ID)) — for snapshot items AND
// delta adds — and a full enumeration yields exactly the live entry set.
func TestNearestWalkEnvKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	x := New(Options{MergeThreshold: -1})
	entries := randEntries(rng, 400)
	if err := x.BulkLoad(entries[:300]); err != nil {
		t.Fatal(err)
	}
	for i := 300; i < 400; i++ {
		x.Insert(entries[i])
	}
	sawRaisedDelta := false
	var repushes int64
	for trial := 0; trial < 10; trial++ {
		var p [4]float64
		for d := 0; d < 4; d++ {
			p[d] = rng.NormFloat64() * 10
		}
		seen := make(map[seq.ID]struct{}, 400)
		prev := -1.0
		ws := x.NearestWalkKeyed(&p, nil, idLB, func(e Entry, key float64) bool {
			if key < prev {
				t.Fatalf("key stream decreased: %g after %g", key, prev)
			}
			prev = key
			want := linf(&e, &p)
			if lb := idLB(e.ID); lb > want {
				want = lb
				if e.ID > 300 {
					sawRaisedDelta = true
				}
			}
			if key != want {
				t.Fatalf("entry %d emitted at key %g, want max(mindist, lb) = %g", e.ID, key, want)
			}
			seen[e.ID] = struct{}{}
			return true
		})
		if len(seen) != 400 {
			t.Fatalf("full walk emitted %d distinct entries, want 400", len(seen))
		}
		if ws.Pushes == 0 {
			t.Fatal("walk reported zero frontier pushes")
		}
		repushes += ws.Repushes
	}
	if repushes == 0 {
		t.Fatal("sharpened walks reported zero re-pushes")
	}
	if !sawRaisedDelta {
		t.Fatal("no delta add was raised by the sharpener; delta re-key untested")
	}
}

// TestNearestWalkEnvNilSharpenMatchesPlain: with a nil sharpener the keyed
// walk must emit exactly the NearestWalk stream (entry and distance), so
// ordering-off callers route through one code path without behavior drift.
func TestNearestWalkEnvNilSharpenMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	x := New(Options{MergeThreshold: -1})
	entries := randEntries(rng, 200)
	if err := x.BulkLoad(entries[:150]); err != nil {
		t.Fatal(err)
	}
	for i := 150; i < 200; i++ {
		x.Insert(entries[i])
	}
	for trial := 0; trial < 10; trial++ {
		var p [4]float64
		for d := 0; d < 4; d++ {
			p[d] = rng.NormFloat64() * 10
		}
		type emit struct {
			id   seq.ID
			dist float64
		}
		var plain, keyed []emit
		x.NearestWalk(&p, func(e Entry, dist float64) bool {
			plain = append(plain, emit{e.ID, dist})
			return true
		})
		x.NearestWalkKeyed(&p, nil, nil, func(e Entry, key float64) bool {
			keyed = append(keyed, emit{e.ID, key})
			return true
		})
		if len(plain) != len(keyed) {
			t.Fatalf("stream lengths differ: %d vs %d", len(plain), len(keyed))
		}
		for i := range plain {
			if plain[i] != keyed[i] {
				t.Fatalf("stream diverges at %d: plain %+v, keyed %+v", i, plain[i], keyed[i])
			}
		}
	}
}

// TestNearestWalkAllocFree enforces the pooled frontier: a steady-state
// k-NN walk — plain or sharpened — performs zero allocations, and so
// does a range walk into a reused buffer.
func TestNearestWalkAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(103))
	x := New(Options{MergeThreshold: -1})
	entries := randEntries(rng, 600)
	if err := x.BulkLoad(entries[:500]); err != nil {
		t.Fatal(err)
	}
	for i := 500; i < 600; i++ {
		x.Insert(entries[i])
	}
	p := [4]float64{1, -2, 3, -4}
	n := 0
	plain := func(e Entry, dist float64) bool {
		n++
		return n < 50
	}
	keyed := func(e Entry, key float64) bool {
		n++
		return n < 50
	}
	x.NearestWalk(&p, plain) // warm the pool
	if avg := testing.AllocsPerRun(20, func() {
		n = 0
		x.NearestWalk(&p, plain)
	}); avg != 0 {
		t.Fatalf("NearestWalk allocates %.1f per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() {
		n = 0
		x.NearestWalkKeyed(&p, nil, idLB, keyed)
	}); avg != 0 {
		t.Fatalf("NearestWalkKeyed allocates %.1f per run, want 0", avg)
	}
	// The range walk too: with the caller reusing its buffer, a walk over
	// the packed slab and the delta's adds array must not allocate.
	lo, hi := [4]float64{-5, -5, -5, -5}, [4]float64{5, 5, 5, 5}
	buf := make([]Entry, 0, len(entries))
	if got := x.AppendRange(buf, &lo, &hi); len(got) == 0 {
		t.Fatal("range walk found nothing; the allocation check below would be vacuous")
	}
	if avg := testing.AllocsPerRun(20, func() {
		buf = x.AppendRange(buf[:0], &lo, &hi)
	}); avg != 0 {
		t.Fatalf("AppendRange allocates %.1f per run, want 0", avg)
	}
}
