package flatidx

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/seq"
)

// FuzzSlabRoundtrip drives the packed-node encode/decode roundtrip from
// raw bytes: the input is interpreted both ways —
//
//  1. as entry data: build a snapshot, re-decode its slab, and require the
//     decoded tree to be byte-identical and to agree with a brute-force
//     range scan (the generative oracle); then put the same entries in an
//     index with a delta, save it (which merges) and load it back;
//  2. as a hostile file and a hostile slab: load and Decode must never
//     panic, and whenever they accept, the invariants must hold and the
//     slab's re-encoded bytes must be the identity (validation is total).
func FuzzSlabRoundtrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	// A seed corpus entry that decodes successfully end-to-end.
	seedEntries := []Entry{
		{ID: 1, Point: [4]float64{0, 1, 2, 3}},
		{ID: 2, Point: [4]float64{4, 5, 6, 7}},
	}
	f.Add(Build(seedEntries, 1).Bytes())
	valid, bad := snapshotFiles()
	f.Add(valid)
	for _, data := range bad {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Interpretation 1: bytes → entries → Build → Decode → compare.
		entries := entriesFromBytes(data)
		snap := Build(entries, 9)
		dec, err := Decode(snap.Bytes())
		if err != nil {
			t.Fatalf("Decode rejected a freshly built slab: %v", err)
		}
		if !bytes.Equal(dec.Bytes(), snap.Bytes()) {
			t.Fatal("decode→encode is not the identity on a built slab")
		}
		if len(entries) > 0 {
			lo := entries[0].Point
			hi := entries[0].Point
			for _, e := range entries {
				for d := 0; d < 4; d++ {
					if e.Point[d] < lo[d] {
						lo[d] = e.Point[d]
					}
					if e.Point[d] > hi[d] {
						hi[d] = e.Point[d]
					}
				}
			}
			got := dec.appendRange(nil, &lo, &hi, nil)
			if len(got) != len(entries) {
				t.Fatalf("bounding-rect range returned %d of %d entries", len(got), len(entries))
			}
		}

		// The same entries in an index: the first half packed, the second
		// half delta adds, every third packed entry tombstoned. Saved, which
		// folds the delta in, and loaded, it must hold exactly those entries.
		half := len(entries) / 2
		x := New(Options{MergeThreshold: -1})
		if err := x.BulkLoad(entries[:half]); err != nil {
			t.Fatal(err)
		}
		for _, e := range entries[half:] {
			x.Insert(e)
		}
		for i := 0; i < half; i += 3 {
			x.Delete(entries[i])
		}
		want := x.Entries(nil)
		sortEntries(want)
		x.Merge()
		y, err := load(x.view.Load().snap.encode(), Options{MergeThreshold: -1})
		if err != nil {
			t.Fatalf("load rejected a freshly encoded file: %v", err)
		}
		if y.DeltaEntries() != 0 {
			t.Fatalf("loaded %d delta entries, want 0", y.DeltaEntries())
		}
		got := y.Entries(nil)
		sortEntries(got)
		if len(got) != len(want) {
			t.Fatalf("loaded %d entries, saved %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("loaded entry %d = %+v, saved %+v", i, got[i], want[i])
			}
		}
		if err := y.CheckInvariants(); err != nil {
			t.Fatal(err)
		}

		// Interpretation 2: bytes are a hostile file, then a hostile slab. Must not panic; on
		// acceptance the invariants and the byte identity must hold.
		if y, err := load(data, Options{MergeThreshold: -1}); err == nil {
			if err := y.CheckInvariants(); err != nil {
				t.Fatalf("load accepted a file CheckInvariants rejects: %v", err)
			}
		}
		hostile, err := Decode(data)
		if err != nil {
			return
		}
		if !bytes.Equal(hostile.Bytes(), data) {
			t.Fatal("accepted slab does not round-trip")
		}
		if err := hostile.CheckInvariants(); err != nil {
			t.Fatalf("Decode accepted a slab CheckInvariants rejects: %v", err)
		}
	})
}

// entriesFromBytes decodes data as a stream of 36-byte entry records,
// sanitizing the floats (non-finite → 0) and deduplicating — Build's input
// contract.
func entriesFromBytes(data []byte) []Entry {
	n := len(data) / itemSize
	if n > 2048 {
		n = 2048
	}
	seen := make(map[Entry]struct{}, n)
	ids := make(map[seq.ID]struct{}, n)
	var out []Entry
	for i := 0; i < n; i++ {
		off := i * itemSize
		var e Entry
		for d := 0; d < 4; d++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[off+d*8:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			e.Point[d] = v
		}
		e.ID = seq.ID(binary.LittleEndian.Uint32(data[off+32:]))
		if _, dup := seen[e]; dup {
			continue
		}
		if _, dup := ids[e.ID]; dup {
			continue
		}
		seen[e] = struct{}{}
		ids[e.ID] = struct{}{}
		out = append(out, e)
	}
	return out
}
