package flatidx

import (
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzMmapLoad drives the mmap open path with hostile snapshot files:
// truncated, bit-flipped, or arbitrary bytes on disk must either make Load
// return an error (the caller rebuilds from the heap) or produce an index
// whose walks never fault — the computed node layout guarantees corrupt
// body bytes can only yield wrong floats, not out-of-bounds access. The
// same input is also driven through the fallback reader so both paths stay
// panic-free.
func FuzzMmapLoad(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	seed := []Entry{
		{ID: 1, Point: [4]float64{0, 1, 2, 3}},
		{ID: 2, Point: [4]float64{4, 5, 6, 7}},
	}
	{
		slab := Build(seed, 1).Bytes()
		file := make([]byte, len(slab)+4)
		copy(file, slab)
		crc := crc32.ChecksumIEEE(slab)
		file[len(slab)] = byte(crc)
		file[len(slab)+1] = byte(crc >> 8)
		file[len(slab)+2] = byte(crc >> 16)
		file[len(slab)+3] = byte(crc >> 24)
		f.Add(file)
		f.Add(file[:len(file)/2]) // truncated
		flipped := append([]byte(nil), file...)
		flipped[len(flipped)/2] ^= 0xff // body corruption
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "snap.flat")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		exercise := func(x *Index) {
			p := [4]float64{1, 2, 3, 4}
			n := 0
			x.NearestWalkKeyed(&p, nil, idLB, func(e Entry, key float64) bool {
				n++
				return n < 64
			})
			lo := [4]float64{-10, -10, -10, -10}
			hi := [4]float64{10, 10, 10, 10}
			x.AppendRange(nil, &lo, &hi)
			_ = x.CheckInvariants() // lazy CRC: may error, must not fault
		}
		if x, err := Load(path, Options{MergeThreshold: -1}); err == nil {
			exercise(x)
		}
		t.Setenv("TWSIM_NO_MMAP", "1")
		if x, err := Load(path, Options{MergeThreshold: -1}); err == nil {
			exercise(x)
		}
	})
}
