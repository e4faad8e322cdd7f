package flatidx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/fsx"
)

// Snapshot file format, all integers little-endian:
//
//	slab                      self-describing, see the layout constants in snapshot.go
//	crc32(IEEE) of the slab   u32
//	delta section             optional; absent when the delta is empty
//	  magic "TWFD" | nAdds u32 | nDels u32
//	  nAdds × item            the delta adds, in insertion order
//	  nDels × item            the tombstones
//	crc32(IEEE) of the delta section, u32 (only with the section)
//
// An item is the slab's own itemSize-byte encoding. The file is the index's
// current view, not a merged one: Save never rebuilds the slab, so a
// checkpoint costs a copy of the slab plus the delta, and the delta's
// entries survive a restart as delta entries.
//
// Load reads the file whole and checks it before the index serves a query:
// the slab's CRC, the full structural validation (Decode), and the delta
// section's checksum and its invariants against the slab (no add present in
// it, every tombstone present in it). Theorem 1 holds only if every entry is
// the record's true feature point, so nothing the checks have not passed is
// ever walked.
const (
	deltaMagic      = "TWFD"
	deltaHeaderSize = 12
)

// Save writes the current view — slab, checksum, delta section — to path
// through fsx.WriteFileSync (temp file + rename + parent-directory fsync,
// mode 0644 like the database's other files), so a crash mid-write never
// corrupts an existing snapshot and a completed Save survives power loss.
// It takes no lock and performs no merge: a view is immutable once
// published.
func (x *Index) Save(path string) error {
	return fsx.WriteFileSync(path, x.view.Load().encode(), 0o644)
}

// encode renders the view as the bytes of a snapshot file.
func (v *view) encode() []byte {
	slab := v.snap.Bytes()
	size := len(slab) + 4
	if n := len(v.adds) + len(v.dels); n > 0 {
		size += deltaHeaderSize + n*itemSize + 4
	}
	buf := make([]byte, 0, size)
	buf = append(buf, slab...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(slab))
	if len(buf) == size {
		return buf
	}
	section := len(buf)
	buf = append(buf, deltaMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.adds)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.dels)))
	item := func(e Entry) {
		buf = buf[:len(buf)+itemSize]
		putItem(buf[len(buf)-itemSize:], e)
	}
	for _, e := range v.adds {
		item(e)
	}
	for e := range v.dels {
		item(e)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[section:]))
}

// Load reads a snapshot file and returns an Index seeded with its slab and
// its delta. Any detected corruption — truncation, bad header, checksum
// mismatch, layout or containment violations, a delta that contradicts the
// slab — is an error; the caller is expected to rebuild from the primary
// data instead.
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
	nNodes, nItems, _, err := headerLayout(data)
	if err != nil {
		return nil, err
	}
	end := slabSize(nNodes, nItems)
	if len(data) < end+4 {
		return nil, fmt.Errorf("%d bytes, the slab and its checksum want %d", len(data), end+4)
	}
	slab, want, section := data[:end], binary.LittleEndian.Uint32(data[end:]), data[end+4:]
	if got := crc32.ChecksumIEEE(slab); got != want {
		return nil, fmt.Errorf("checksum mismatch (got %08x want %08x)", got, want)
	}
	snap, err := Decode(slab)
	if err != nil {
		return nil, err
	}
	x := New(opts)
	dels, err := x.loadDelta(section, snap)
	if err != nil {
		return nil, err
	}
	x.view.Store(&view{snap: snap, adds: x.adds, dels: dels})
	return x, nil
}

// loadDelta parses the file's delta section (empty: a file saved with no
// pending delta, or by a version that merged before every save) into the
// writer's adds array and the returned tombstone set, holding both to the
// view invariants against snap.
func (x *Index) loadDelta(section []byte, snap *Snapshot) (dels map[Entry]struct{}, err error) {
	if len(section) == 0 {
		return nil, nil
	}
	if len(section) < deltaHeaderSize+4 || string(section[:4]) != deltaMagic {
		return nil, errors.New("delta section: bad header")
	}
	nAdds := int(binary.LittleEndian.Uint32(section[4:]))
	nDels := int(binary.LittleEndian.Uint32(section[8:]))
	if nAdds > maxItems || nDels > maxItems ||
		len(section) != deltaHeaderSize+(nAdds+nDels)*itemSize+4 {
		return nil, fmt.Errorf("delta section: %d adds and %d tombstones do not fit %d bytes", nAdds, nDels, len(section))
	}
	body, tail := section[:len(section)-4], section[len(section)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("delta section: checksum mismatch (got %08x want %08x)", got, want)
	}
	items := body[deltaHeaderSize:]
	x.adds = make([]Entry, nAdds)
	for i := range x.adds {
		e := getItem(items[i*itemSize:])
		if _, dup := x.addsSet[e]; dup || snap.contains(e) {
			return nil, fmt.Errorf("delta section: add %d is a duplicate or already in the slab", e.ID)
		}
		x.adds[i] = e
		x.addsSet[e] = i
	}
	if nDels > 0 {
		dels = make(map[Entry]struct{}, nDels)
	}
	for i := nAdds; i < nAdds+nDels; i++ {
		e := getItem(items[i*itemSize:])
		if _, dup := dels[e]; dup || !snap.contains(e) {
			return nil, fmt.Errorf("delta section: tombstone %d is a duplicate or not in the slab", e.ID)
		}
		dels[e] = struct{}{}
	}
	return dels, nil
}
