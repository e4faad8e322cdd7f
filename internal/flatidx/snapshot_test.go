package flatidx

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/seq"
)

func randEntries(rng *rand.Rand, n int) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		entries[i].ID = seq.ID(i + 1)
		for d := 0; d < 4; d++ {
			entries[i].Point[d] = rng.NormFloat64() * 10
		}
	}
	return entries
}

func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool { return es[i].ID < es[j].ID })
}

func bruteRange(entries []Entry, lo, hi [4]float64) []Entry {
	var out []Entry
	for _, e := range entries {
		in := true
		for d := 0; d < 4; d++ {
			if e.Point[d] < lo[d] || e.Point[d] > hi[d] {
				in = false
				break
			}
		}
		if in {
			out = append(out, e)
		}
	}
	return out
}

func TestBuildRangeAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 15, 16, 17, 100, 1000, 4000} {
		entries := randEntries(rng, n)
		snap := Build(entries, 1)
		if snap.Len() != n {
			t.Fatalf("n=%d: snapshot Len=%d", n, snap.Len())
		}
		if err := snap.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for q := 0; q < 20; q++ {
			var lo, hi [4]float64
			for d := 0; d < 4; d++ {
				c := rng.NormFloat64() * 10
				r := rng.Float64() * 15
				lo[d], hi[d] = c-r, c+r
			}
			got := snap.appendRange(nil, &lo, &hi, nil)
			want := bruteRange(entries, lo, hi)
			sortEntries(got)
			sortEntries(want)
			if len(got) != len(want) {
				t.Fatalf("n=%d q=%d: got %d entries, want %d", n, q, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d q=%d: entry %d = %+v, want %+v", n, q, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDecodeRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{0, 1, 40, 500} {
		entries := randEntries(rng, n)
		snap := Build(entries, 7)
		dec, err := Decode(snap.Bytes())
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if dec.Generation() != 7 || dec.Len() != n {
			t.Fatalf("n=%d: decoded gen=%d len=%d", n, dec.Generation(), dec.Len())
		}
		// Re-encoding is the identity: the slab IS the snapshot.
		if string(dec.Bytes()) != string(snap.Bytes()) {
			t.Fatalf("n=%d: roundtrip bytes differ", n)
		}
		// Every item survives.
		got := dec.Entries(nil)
		sortEntries(got)
		want := append([]Entry(nil), entries...)
		sortEntries(want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: item %d = %+v, want %+v", n, i, got[i], want[i])
			}
		}
	}
}

// Entries on a bare snapshot (test helper mirroring Index.Entries).
func (s *Snapshot) Entries(dst []Entry) []Entry {
	for j := 0; j < s.nItems; j++ {
		dst = append(dst, s.item(j))
	}
	return dst
}

func TestDecodeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := Build(randEntries(rng, 200), 3).Bytes()

	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), base...)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"truncated header": base[:headerSize-1],
		"truncated slab":   base[:len(base)-1],
		"bad magic":        mutate(func(b []byte) { b[0] = 'X' }),
		"bad version":      mutate(func(b []byte) { b[4] = 99 }),
		"unknown flags":    mutate(func(b []byte) { b[8] |= 0x80 }),
		// Bit 0 was the retired per-item envelope region: such a file has a
		// layout this reader no longer knows and must be rebuilt, not read.
		"envelope flag":    mutate(func(b []byte) { b[8] |= 0x01 }),
		"node count lie":   mutate(func(b []byte) { b[12]++ }),
		"item count lie":   mutate(func(b []byte) { b[16]++ }),
		"height lie":       mutate(func(b []byte) { b[20]++ }),
		"leaf bit flipped": mutate(func(b []byte) { b[headerSize+68+3] ^= 0x80 }),
		"child first lie":  mutate(func(b []byte) { b[headerSize+64]++ }),
		// NaN root bound: !(lo <= hi) must reject it.
		"rect NaN": mutate(func(b []byte) {
			for i := headerSize; i < headerSize+8; i++ {
				b[i] = 0xff
			}
		}),
		// Swap the root's lo[0]/hi[0]: inverted rect (or escaped children).
		"rect inverted": mutate(func(b []byte) {
			for i := 0; i < 8; i++ {
				b[headerSize+i], b[headerSize+32+i] = b[headerSize+32+i], b[headerSize+i]
			}
		}),
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
	if _, err := Decode(base); err != nil {
		t.Fatalf("pristine slab rejected: %v", err)
	}
}

func TestContains(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	entries := randEntries(rng, 300)
	snap := Build(entries, 1)
	for _, e := range entries {
		if !snap.contains(e) {
			t.Fatalf("missing entry %d", e.ID)
		}
	}
	absent := entries[0]
	absent.ID += 1000
	if snap.contains(absent) {
		t.Error("contains admitted an absent ID at a present point")
	}
	moved := entries[0]
	moved.Point[2] += 1
	if snap.contains(moved) {
		t.Error("contains admitted a moved point")
	}
}

func TestNodeDistMatchesRtreeAxisDist(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	entries := randEntries(rng, 128)
	snap := Build(entries, 1)
	var lo, hi [4]float64
	snap.nodeRect(0, &lo, &hi)
	for trial := 0; trial < 200; trial++ {
		var p [4]float64
		for d := 0; d < 4; d++ {
			p[d] = rng.NormFloat64() * 40
		}
		want := 0.0
		for d := 0; d < 4; d++ {
			var g float64
			switch {
			case p[d] < lo[d]:
				g = lo[d] - p[d]
			case p[d] > hi[d]:
				g = p[d] - hi[d]
			}
			if g > want {
				want = g
			}
		}
		if got := snap.nodeDistLInf(0, &p); got != want {
			t.Fatalf("nodeDistLInf=%g want %g (bit-identity matters)", got, want)
		}
	}
}
