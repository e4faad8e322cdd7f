package flatidx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"

	"repro/internal/flatidx/mapfile"
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
// Load opens the file through mapfile: on platforms with mmap (and unless
// TWSIM_NO_MMAP is set) the slab is a read-only file mapping and opening
// costs O(header + delta) — only the header page is faulted in and
// validated; the slab's CRC is recorded on the snapshot and verified lazily
// by CheckInvariants, and a full structural check runs only on rebuild
// paths. On the fallback path the whole file is read, the CRC verified, and
// the full structural validation (Decode) run eagerly. The delta section is
// small, so both paths verify its checksum and its invariants against the
// slab (no add present in it, every tombstone present in it) up front and
// copy its entries out of the mapping.
const (
	deltaMagic      = "TWFD"
	deltaHeaderSize = 12
)

// Save writes the current view — slab, checksum, delta section — to path
// through fsx.WriteFileSync (temp file + rename + parent-directory fsync,
// mode 0644 like the database's other files), so a crash mid-write never
// corrupts an existing snapshot and a completed Save survives power loss.
// It takes no lock and performs no merge: a view is immutable once
// published. Renaming over a currently-mapped snapshot file is safe: the
// mapping references the old inode, not the path.
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
	// slab may alias snap's file mapping — without this fence the finalizer
	// could munmap the pages while the copy or checksum is still reading
	// them.
	runtime.KeepAlive(v.snap)
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

// Load opens a snapshot file and returns an Index seeded with its slab and
// its delta. On the mmap path only the slab header is validated up front
// (the CRC and structural checks run lazily via CheckInvariants); on the
// fallback path the file is read whole and fully validated. Any detected
// corruption — truncation, bad header, checksum mismatch, layout or
// containment violations, a delta that contradicts the slab — is an error;
// the caller is expected to rebuild from the primary data instead.
func Load(path string, opts Options) (*Index, error) {
	m, err := mapfile.Open(path)
	if err != nil {
		return nil, err
	}
	x, err := load(m, opts)
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("flatidx: snapshot file %s: %w", path, err)
	}
	return x, nil
}

func load(m *mapfile.Mapping, opts Options) (*Index, error) {
	nNodes, nItems, _, err := headerLayout(m.Data)
	if err != nil {
		return nil, err
	}
	end := slabSize(nNodes, nItems)
	if len(m.Data) < end+4 {
		return nil, fmt.Errorf("%d bytes, the slab and its checksum want %d", len(m.Data), end+4)
	}
	slab, want, section := m.Data[:end], binary.LittleEndian.Uint32(m.Data[end:]), m.Data[end+4:]

	var snap *Snapshot
	if m.Mapped {
		if snap, err = DecodeLite(slab); err != nil {
			return nil, err
		}
		snap.wantCRC = want
		snap.crcSet = true
	} else {
		if got := crc32.ChecksumIEEE(slab); got != want {
			return nil, fmt.Errorf("checksum mismatch (got %08x want %08x)", got, want)
		}
		if snap, err = Decode(slab); err != nil {
			return nil, err
		}
	}
	x := New(opts)
	dels, err := x.loadDelta(section, snap)
	if err != nil {
		return nil, err
	}
	if m.Mapped {
		snap.mapped = int64(len(m.Data))
		snap.release = m.Close
		// The mapping lives exactly as long as the snapshot is reachable:
		// every reader pins the snapshot through its view, so by the time
		// the collector runs this finalizer no view (and no in-flight walk
		// holding one) can still touch the mapped slab — the
		// munmap-after-last-reference fence behind the atomic snapshot swap.
		runtime.SetFinalizer(snap, (*Snapshot).releaseMapping)
	}
	x.view.Store(&view{snap: snap, adds: x.adds, dels: dels})
	x.openBytesRead = m.BytesRead
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
