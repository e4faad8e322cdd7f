package flatidx

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rtree"
	"repro/internal/seq"
)

// linf and refNodeDistLInf are the branchy L∞ loops the walk keyed its
// delta adds, snapshot items and nodes with before the branch-free
// kernels, kept verbatim as the kernels' references.
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

func refNodeDistLInf(lo, hi, p *[4]float64) float64 {
	max := 0.0
	for d := 0; d < 4; d++ {
		var g float64
		if lo := lo[d]; p[d] < lo {
			g = lo - p[d]
		} else if hi := hi[d]; p[d] > hi {
			g = p[d] - hi
		}
		if g > max {
			max = g
		}
	}
	return max
}

// FuzzLInfKernelsMatchReference holds the walk's branch-free L∞ keys — the
// node kernel, the item kernel and the point kernel delta adds use — to the
// branchy loops they replaced and to rtree.Rect.MinDist under NormLInf,
// bit for bit. Points and rect corners come from raw float64 bits; the
// kernels' contract is finite inputs, so a NaN or an infinity is skipped.
// The rect is the leaf rect Build packs around the two corner points, so
// it is ordered whatever the corners are, and lo == hi on an axis where
// they agree.
func FuzzLInfKernelsMatchReference(f *testing.F) {
	b := math.Float64bits
	negZero := math.Copysign(0, -1)
	tiny := math.SmallestNonzeroFloat64
	big := math.MaxFloat64
	for _, s := range [][12]float64{
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{negZero, 0, negZero, 0, 0, negZero, 0, negZero, negZero, 0, 0, negZero},
		{tiny, -tiny, 0, negZero, -tiny, tiny, tiny, 0, 0, 0, -tiny, tiny},
		{-big, big, 0, 1, big, -big, big, -big, big, -big, big, -big},
		{1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4},
		{0.5, -7, 3, 2.25, 0, -8, 3, 1, 1, -6, 3, 2},
		{-3, 9, 1e-310, 4, -1, 1, 2e-310, 5, -2, 2, -1e-310, 6},
	} {
		f.Add(b(s[0]), b(s[1]), b(s[2]), b(s[3]), b(s[4]), b(s[5]), b(s[6]), b(s[7]), b(s[8]), b(s[9]), b(s[10]), b(s[11]))
	}
	f.Fuzz(func(t *testing.T, p0, p1, p2, p3, a0, a1, a2, a3, b0, b1, b2, b3 uint64) {
		var p, a, c [4]float64
		for d, bits := range [12]uint64{p0, p1, p2, p3, a0, a1, a2, a3, b0, b1, b2, b3} {
			v := math.Float64frombits(bits)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
			[3]*[4]float64{&p, &a, &c}[d/4][d%4] = v
		}
		same := func(what string, got, ref, rt float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(ref) || math.Float64bits(got) != math.Float64bits(rt) {
				t.Fatalf("%s: kernel %g (%#x), branchy loop %g (%#x), rtree MinDist %g (%#x)",
					what, got, math.Float64bits(got), ref, math.Float64bits(ref), rt, math.Float64bits(rt))
			}
		}
		snap := Build([]Entry{{ID: 1, Point: a}, {ID: 2, Point: c}}, 1)
		var lo, hi [4]float64
		snap.nodeRect(0, &lo, &hi)
		same("node", snap.nodeDistLInf(0, &p), refNodeDistLInf(&lo, &hi, &p),
			rtree.Rect{Lo: lo[:], Hi: hi[:]}.MinDist(p[:], rtree.NormLInf))
		for j := 0; j < 2; j++ {
			e := snap.item(j)
			same("item", snap.itemDistLInf(j, &p), linf(&e, &p),
				rtree.Rect{Lo: e.Point[:], Hi: e.Point[:]}.MinDist(p[:], rtree.NormLInf))
		}
		for _, x := range [][4]float64{a, c} {
			e := Entry{Point: x}
			same("delta add", pointDistLInf(&x, &p), linf(&e, &p),
				rtree.Rect{Lo: x[:], Hi: x[:]}.MinDist(p[:], rtree.NormLInf))
		}
	})
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
		ws := x.NearestWalkKeyed(&p, idLB, func(e Entry, key float64) bool {
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
		x.NearestWalkKeyed(&p, nil, func(e Entry, key float64) bool {
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

// TestNearestWalkDeltaMatchesMerged holds the walk over snapshot ∪ delta,
// where the delta is a second frontier behind one cursor, to the walk over
// a bulk-loaded index of the same live entries. For delta sizes from empty
// to one below the default merge threshold, sharpened and not, with
// tombstones (on snapshot entries and on delta adds) and without: the key
// stream is non-decreasing, a full walk emits the same (ID, key) multiset,
// and a walk stopped after m emissions has emitted the m smallest keys.
func TestNearestWalkDeltaMatchesMerged(t *testing.T) {
	type emit struct {
		id  seq.ID
		key float64
	}
	byKey := func(a, b emit) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	}
	walk := func(x *Index, p *[4]float64, sharpen func(seq.ID) float64, m int) []emit {
		var out []emit
		x.NearestWalkKeyed(p, sharpen, func(e Entry, key float64) bool {
			if len(out) > 0 && key < out[len(out)-1].key {
				t.Fatalf("key stream decreased: %g after %g", key, out[len(out)-1].key)
			}
			out = append(out, emit{e.ID, key})
			return len(out) != m
		})
		return out
	}
	const snapN = 600
	for _, deltaN := range []int{0, 1, 2, 17, DefaultMergeThreshold - 1} {
		for _, tombs := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(109 + deltaN)))
			entries := randEntries(rng, snapN+deltaN)
			x := New(Options{MergeThreshold: -1})
			if err := x.BulkLoad(entries[:snapN]); err != nil {
				t.Fatal(err)
			}
			for _, e := range entries[snapN:] {
				x.Insert(e)
			}
			if tombs {
				for i := 0; i < len(entries); i += 5 {
					if !x.Delete(entries[i]) {
						t.Fatalf("delete of entry %d failed", entries[i].ID)
					}
				}
			}
			ref := New(Options{MergeThreshold: -1})
			if err := ref.BulkLoad(x.Entries(nil)); err != nil {
				t.Fatal(err)
			}
			for _, sharpen := range []func(seq.ID) float64{nil, idLB} {
				for q := 0; q < 3; q++ {
					var p [4]float64
					for d := range p {
						p[d] = rng.NormFloat64() * 10
					}
					got, want := walk(x, &p, sharpen, -1), walk(ref, &p, sharpen, -1)
					if len(got) != x.Len() {
						t.Fatalf("delta %d tombs %v: full walk emitted %d of %d live entries", deltaN, tombs, len(got), x.Len())
					}
					slices.SortFunc(got, byKey)
					slices.SortFunc(want, byKey)
					if !slices.Equal(got, want) {
						t.Fatalf("delta %d tombs %v sharpened %v: the walk's (ID, key) multiset differs from the merged index's",
							deltaN, tombs, sharpen != nil)
					}
					for _, m := range []int{1, 10, 50} {
						part := walk(x, &p, sharpen, m)
						if len(part) != m {
							t.Fatalf("walk stopped after %d emissions emitted %d", m, len(part))
						}
						for i := range part {
							if part[i].key != got[i].key {
								t.Fatalf("delta %d tombs %v sharpened %v: walk stopped after %d emitted key %g at %d, the %d-th smallest is %g",
									deltaN, tombs, sharpen != nil, m, part[i].key, i, i+1, got[i].key)
							}
						}
					}
				}
			}
		}
	}
}

// TestNearestWalkAllocFree enforces the pooled frontier: a steady-state
// k-NN walk — plain or sharpened, over a small delta or one near the merge
// threshold — performs zero allocations, and so does a range walk into a
// reused buffer.
func TestNearestWalkAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget not meaningful under -race")
	}
	for _, deltaN := range []int{100, 4000} {
		rng := rand.New(rand.NewSource(103))
		x := New(Options{MergeThreshold: -1})
		entries := randEntries(rng, 500+deltaN)
		if err := x.BulkLoad(entries[:500]); err != nil {
			t.Fatal(err)
		}
		for _, e := range entries[500:] {
			x.Insert(e)
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
		x.NearestWalk(&p, plain) // warm the pools
		if avg := testing.AllocsPerRun(20, func() {
			n = 0
			x.NearestWalk(&p, plain)
		}); avg != 0 {
			t.Fatalf("NearestWalk over a %d-add delta allocates %.1f per run, want 0", deltaN, avg)
		}
		if avg := testing.AllocsPerRun(20, func() {
			n = 0
			x.NearestWalkKeyed(&p, idLB, keyed)
		}); avg != 0 {
			t.Fatalf("NearestWalkKeyed over a %d-add delta allocates %.1f per run, want 0", deltaN, avg)
		}
		// The range walk too: with the caller reusing its buffer, a walk
		// over the packed slab and the delta's adds array must not allocate.
		lo, hi := [4]float64{-5, -5, -5, -5}, [4]float64{5, 5, 5, 5}
		buf := make([]Entry, 0, len(entries))
		if got := x.AppendRange(buf, &lo, &hi); len(got) == 0 {
			t.Fatal("range walk found nothing; the allocation check below would be vacuous")
		}
		if avg := testing.AllocsPerRun(20, func() {
			buf = x.AppendRange(buf[:0], &lo, &hi)
		}); avg != 0 {
			t.Fatalf("AppendRange over a %d-add delta allocates %.1f per run, want 0", deltaN, avg)
		}
	}
}
