package seqdb

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/seq"
)

// Byte positions in dir.bin (see saveDirectory): magic, version, the record
// count, the element count, one offset a record, the stream length, the
// tombstone count, the tombstoned IDs.
const (
	dirCountAt = 8
	dirElemsAt = 16
	dirOffsets = 24
)

// damagedHeapFiles builds a flushed heap of n records (the last two tombstoned)
// at a small page size and returns its directory and data files' bytes.
func damagedHeapFiles(t testing.TB, n int) (dirBytes, dataBytes []byte) {
	t.Helper()
	dir := t.TempDir()
	db, err := Create(dir, Options{PageSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s := make(seq.Sequence, 3+i%9)
		for j := range s {
			s[j] = float64(i*100 + j)
		}
		if _, err := db.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []seq.ID{seq.ID(n - 2), seq.ID(n - 1)} {
		if _, err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if dirBytes, err = os.ReadFile(filepath.Join(dir, dirFile)); err != nil {
		t.Fatal(err)
	}
	if dataBytes, err = os.ReadFile(filepath.Join(dir, dataFile)); err != nil {
		t.Fatal(err)
	}
	return dirBytes, dataBytes
}

// openWithDirectory opens a heap made of the given two files.
func openWithDirectory(t testing.TB, dirBytes, dataBytes []byte) (*DB, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, dirFile), dirBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, dataFile), dataBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	return Open(dir, Options{})
}

// TestLoadDirectoryRefusesDamage: dir.bin carries no checksum, so Open
// checks what a read will compute from it. One field is damaged per case —
// each opened without complaint before the checks existed, and the first led
// Get into make([]byte, 1<<40) — and Open must refuse every one.
func TestLoadDirectoryRefusesDamage(t *testing.T) {
	const n = 12
	good, data := damagedHeapFiles(t, n)
	offsetAt := func(i int) int { return dirOffsets + 8*i } // i == n: the stream length
	tombsAt := offsetAt(n+1) + 4
	u64 := func(b []byte, at int) uint64 { return binary.LittleEndian.Uint64(b[at:]) }
	put64 := func(b []byte, at int, v uint64) { binary.LittleEndian.PutUint64(b[at:], v) }

	if db, err := openWithDirectory(t, good, data); err != nil {
		t.Fatalf("the undamaged directory does not open: %v", err)
	} else {
		db.Close()
	}
	for name, damage := range map[string]func(b []byte){
		"offset far past the data file": func(b []byte) { put64(b, offsetAt(5), 1<<40) },
		"offset repeated":               func(b []byte) { put64(b, offsetAt(5), u64(b, offsetAt(4))) },
		"offsets out of order":          func(b []byte) { put64(b, offsetAt(5), u64(b, offsetAt(3))) },
		"negative offset":               func(b []byte) { put64(b, offsetAt(0), 1<<63) },
		// offset 4 − offset 3 wraps around to a positive int64.
		"offsets whose difference overflows": func(b []byte) {
			put64(b, offsetAt(3), 0x6ca9a9a9a9a9a907)
			put64(b, offsetAt(4), 0xa000000000000000)
			put64(b, offsetAt(5), 0xdc00010000000000)
		},
		"record shorter than a header and one element": func(b []byte) {
			put64(b, offsetAt(5), u64(b, offsetAt(4))+4)
		},
		"stream ends before the last record": func(b []byte) { put64(b, offsetAt(n), u64(b, offsetAt(n-1))-8) },
		"stream longer than the data file":   func(b []byte) { put64(b, offsetAt(n), u64(b, offsetAt(n))+1<<20) },
		"element count off by one":           func(b []byte) { put64(b, dirElemsAt, u64(b, dirElemsAt)+1) },
		"record count past the file":         func(b []byte) { put64(b, dirCountAt, 1<<61) },
		"tombstone out of range":             func(b []byte) { binary.LittleEndian.PutUint32(b[tombsAt:], n) },
		"tombstone repeated": func(b []byte) {
			copy(b[tombsAt+4:tombsAt+8], b[tombsAt:tombsAt+4])
		},
	} {
		t.Run(name, func(t *testing.T) {
			bad := append([]byte(nil), good...)
			damage(bad)
			db, err := openWithDirectory(t, bad, data)
			if err == nil {
				db.Close()
				t.Fatal("Open accepted the damaged directory")
			}
			t.Log(err)
		})
	}
}

// FuzzLoadDirectory: whatever directory Open accepts over a fixed data file,
// every read of every ID returns a value or an error — no panic, no
// allocation sized by a field the data file cannot back.
func FuzzLoadDirectory(f *testing.F) {
	good, data := damagedHeapFiles(f, 12)
	f.Add(good)
	for _, at := range []int{dirCountAt, dirElemsAt, dirOffsets + 8*3, dirOffsets + 8*12, len(good) - 4} {
		bad := append([]byte(nil), good...)
		bad[at+1] ^= 0x11
		f.Add(bad)
	}
	f.Add(good[:len(good)-5])
	f.Fuzz(func(t *testing.T, dirBytes []byte) {
		db, err := openWithDirectory(t, dirBytes, data)
		if err != nil {
			return
		}
		defer db.Close()
		sc := AcquireScratch()
		defer sc.Release()
		for id := 0; id <= db.NumRecords(); id++ {
			s, err := db.Get(seq.ID(id))
			got, ferr := db.Fetch(seq.ID(id), sc)
			if (err == nil) != (ferr == nil) || !sameBits(s, got) {
				t.Fatalf("id %d: Get = %v, %v; Fetch = %v, %v", id, s, err, got, ferr)
			}
		}
		// The scans decode every record or stop at an error.
		_ = db.Scan(func(seq.ID, seq.Sequence) error { return nil })
		_ = db.ScanAll(func(seq.ID, seq.Sequence, bool) error { return nil })
	})
}
