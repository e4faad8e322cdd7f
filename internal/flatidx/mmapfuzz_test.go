package flatidx

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// deltaFiles returns snapshot files over one 30-item slab: a valid one
// carrying six delta adds and two tombstones, and broken ones, keyed by what
// is wrong with their delta section.
func deltaFiles() (valid []byte, bad map[string][]byte) {
	entries := randEntries(rand.New(rand.NewSource(131)), 40)
	snap := Build(entries[:30], 1)
	file := func(adds []Entry, dels ...Entry) []byte {
		v := &view{snap: snap, adds: adds, dels: map[Entry]struct{}{}}
		for _, e := range dels {
			v.dels[e] = struct{}{}
		}
		return v.encode()
	}
	valid = file(entries[30:36], entries[0], entries[1])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-20] ^= 0x10
	return valid, map[string][]byte{
		"truncated":                  valid[:len(valid)-9],
		"bad crc":                    flipped,
		"add present in slab":        file([]Entry{entries[5]}),
		"tombstone absent from slab": file(nil, entries[35]),
		"duplicate add":              file([]Entry{entries[30], entries[30]}),
	}
}

// TestLoadRefusesBadDelta: a delta section that is cut short, fails its
// checksum or contradicts the slab makes Load fail, so the caller rebuilds
// the index from the heap; the intact file loads with its delta.
func TestLoadRefusesBadDelta(t *testing.T) {
	valid, bad := deltaFiles()
	path := filepath.Join(t.TempDir(), "snap.flat")
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	x, err := Load(path, Options{})
	if err != nil {
		t.Fatalf("intact file: %v", err)
	}
	if x.Len() != 34 || x.DeltaEntries() != 8 {
		t.Fatalf("Len=%d delta=%d, want 34/8", x.Len(), x.DeltaEntries())
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for name, data := range bad {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path, Options{}); err == nil || !strings.Contains(err.Error(), "delta section") {
			t.Errorf("%s: Load = %v, want a delta-section error", name, err)
		}
	}
}

// FuzzMmapLoad drives Load with hostile snapshot files: truncated,
// bit-flipped, or arbitrary bytes on disk — in the slab or in the delta
// section behind it — must either make Load return an error (the caller
// rebuilds from the heap) or produce an index whose walks never fault and
// which CheckInvariants accepts: Load checks the slab's CRC and structure
// and the delta against the slab before it returns. The name is older than
// the one read-and-check path it now drives.
func FuzzMmapLoad(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	seed := []Entry{
		{ID: 1, Point: [4]float64{0, 1, 2, 3}},
		{ID: 2, Point: [4]float64{4, 5, 6, 7}},
	}
	{
		file := (&view{snap: Build(seed, 1)}).encode()
		f.Add(file)
		f.Add(file[:len(file)/2]) // truncated
		flipped := append([]byte(nil), file...)
		flipped[len(flipped)/2] ^= 0xff // body corruption
		f.Add(flipped)
	}
	valid, bad := deltaFiles()
	f.Add(valid)
	for _, data := range bad {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "snap.flat")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		x, err := Load(path, Options{MergeThreshold: -1})
		if err != nil {
			return
		}
		p := [4]float64{1, 2, 3, 4}
		n := 0
		x.NearestWalkKeyed(&p, nil, idLB, func(e Entry, key float64) bool {
			n++
			return n < 64
		})
		lo := [4]float64{-10, -10, -10, -10}
		hi := [4]float64{10, 10, 10, 10}
		x.AppendRange(nil, &lo, &hi)
		if err := x.CheckInvariants(); err != nil {
			t.Fatalf("Load accepted a file CheckInvariants rejects: %v", err)
		}
	})
}
