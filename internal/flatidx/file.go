package flatidx

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/fsx"
)

// Export file format, little-endian: the slab (self-describing, see the
// layout constants in snapshot.go) followed by its crc32(IEEE), u32.
//
// A database never reads this file: Open derives the index from the heap.
// The file is an image of the index for tools outside the database.
const crcSize = 4

// Save folds the delta into the slab and writes the slab and its checksum
// to path through fsx.WriteFileSync (temp file + rename + parent-directory
// fsync, mode 0644 like the database's other files).
func (x *Index) Save(path string) error {
	x.Merge()
	return fsx.WriteFileSync(path, x.view.Load().snap.encode(), 0o644)
}

// encode renders the snapshot as the bytes of a file.
func (s *Snapshot) encode() []byte {
	buf := make([]byte, 0, len(s.slab)+crcSize)
	buf = append(buf, s.slab...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(s.slab))
}

// Load reads a file Save wrote and returns an Index seeded with its slab.
// A checksum mismatch or a slab that fails Decode's structural checks is an
// error.
func Load(path string, opts Options) (*Index, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	x, err := load(data, opts)
	if err != nil {
		return nil, fmt.Errorf("flatidx: snapshot file %s: %w", path, err)
	}
	return x, nil
}

// load adopts the bytes of a snapshot file; the slab keeps data, uncopied.
func load(data []byte, opts Options) (*Index, error) {
	if len(data) < crcSize {
		return nil, fmt.Errorf("%d bytes, shorter than a checksum", len(data))
	}
	slab := data[:len(data)-crcSize]
	if got, want := crc32.ChecksumIEEE(slab), binary.LittleEndian.Uint32(data[len(slab):]); got != want {
		return nil, fmt.Errorf("checksum mismatch (got %08x want %08x)", got, want)
	}
	snap, err := Decode(slab)
	if err != nil {
		return nil, err
	}
	x := New(opts)
	x.view.Store(&view{snap: snap})
	return x, nil
}
