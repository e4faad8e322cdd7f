package flatidx

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// snapshotFiles returns files over one 30-item slab: a valid one, and
// broken ones keyed by what is wrong with them. The last is what an older
// version wrote with six delta adds and two tombstones pending: a delta
// section behind the slab's checksum, a layout Load no longer knows.
func snapshotFiles() (valid []byte, bad map[string][]byte) {
	entries := randEntries(rand.New(rand.NewSource(131)), 40)
	snap := Build(entries[:30], 1)
	valid = snap.encode()
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-20] ^= 0x10
	short := Build(entries[:29], 1).Bytes()
	cut := (&Snapshot{slab: short[:len(short)-itemSize]}).encode()
	return valid, map[string][]byte{
		"truncated":                 valid[:len(valid)-9],
		"bad crc":                   flipped,
		"slab cut short, crc valid": cut,
		"empty":                     {},
		"older delta section":       legacyDeltaFile(snap, entries[30:36], entries[0], entries[1]),
	}
}

// legacyDeltaFile renders snap as the older file format did with a delta
// pending: the slab and its checksum, then "TWFD", the add and tombstone
// counts, the items, and a checksum of that section.
func legacyDeltaFile(snap *Snapshot, adds []Entry, dels ...Entry) []byte {
	buf := snap.encode()
	section := len(buf)
	buf = append(buf, "TWFD"...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(adds)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(dels)))
	for _, e := range append(append([]Entry(nil), adds...), dels...) {
		buf = buf[:len(buf)+itemSize]
		putItem(buf[len(buf)-itemSize:], e)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[section:]))
}

// TestLoadRefusesBadDelta: a file an older version wrote with a delta
// section behind the slab, like a file cut short or failing its checksum,
// makes Load fail; the intact file loads with an empty delta.
func TestLoadRefusesBadDelta(t *testing.T) {
	valid, bad := snapshotFiles()
	path := filepath.Join(t.TempDir(), "snap.flat")
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	x, err := Load(path, Options{})
	if err != nil {
		t.Fatalf("intact file: %v", err)
	}
	if x.Len() != 30 || x.DeltaEntries() != 0 {
		t.Fatalf("Len=%d delta=%d, want 30/0", x.Len(), x.DeltaEntries())
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for name, data := range bad {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path, Options{}); err == nil {
			t.Errorf("%s: Load accepted it", name)
		}
	}
}

// FuzzMmapLoad drives Load with hostile snapshot files: truncated,
// bit-flipped, or arbitrary bytes on disk must either make Load return an
// error or produce an index whose walks never fault and which
// CheckInvariants accepts: Load checks the slab's CRC and structure before
// it returns. The name is older than the one read-and-check path it now
// drives.
func FuzzMmapLoad(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	seed := []Entry{
		{ID: 1, Point: [4]float64{0, 1, 2, 3}},
		{ID: 2, Point: [4]float64{4, 5, 6, 7}},
	}
	{
		file := Build(seed, 1).encode()
		f.Add(file)
		f.Add(file[:len(file)/2]) // truncated
		flipped := append([]byte(nil), file...)
		flipped[len(flipped)/2] ^= 0xff // body corruption
		f.Add(flipped)
	}
	valid, bad := snapshotFiles()
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
		x.NearestWalkKeyed(&p, idLB, func(e Entry, key float64) bool {
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
