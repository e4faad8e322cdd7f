package flatidx

import (
	"fmt"
	"hash/crc32"
	"runtime"

	"repro/internal/flatidx/mapfile"
	"repro/internal/fsx"
)

// Snapshot file format: the slab bytes (already self-describing, see the
// layout constants in snapshot.go) followed by a little-endian CRC-32
// (IEEE) of the slab.
//
// Load opens the file through mapfile: on platforms with mmap (and unless
// TWSIM_NO_MMAP is set) the slab is a read-only file mapping and opening
// costs O(header) — only the header page is faulted in and validated; the
// trailing CRC is recorded on the snapshot and verified lazily by
// CheckInvariants, and a full structural check runs only on rebuild paths.
// On the fallback path the whole file is read, the CRC verified, and the
// full structural validation (Decode) run eagerly, exactly as before.

// Save merges any pending delta and writes the resulting snapshot slab to
// path through fsx.WriteFileSync (temp file + rename + parent-directory
// fsync, mode 0644 like the database's other files), so a crash mid-write
// never corrupts an existing snapshot and a completed Save survives power
// loss. Renaming over a currently-mapped snapshot file is safe:
// the mapping references the old inode, not the path.
func (x *Index) Save(path string) error {
	x.mu.Lock()
	x.mergeLocked()
	snap := x.view.Load().snap
	x.mu.Unlock()

	slab := snap.Bytes()
	buf := make([]byte, len(slab)+4)
	copy(buf, slab)
	crc := crc32.ChecksumIEEE(slab)
	buf[len(slab)] = byte(crc)
	buf[len(slab)+1] = byte(crc >> 8)
	buf[len(slab)+2] = byte(crc >> 16)
	buf[len(slab)+3] = byte(crc >> 24)
	// slab may alias snap's file mapping, and the local snap is dead after
	// the copy above — without this fence the finalizer could munmap the
	// pages while the copy or checksum is still reading them.
	runtime.KeepAlive(snap)

	return fsx.WriteFileSync(path, buf, 0o644)
}

// Load opens a snapshot file and returns an Index seeded with it. On the
// mmap path only the header is validated up front (O(header) bytes touched;
// the CRC and structural checks run lazily via CheckInvariants); on the
// fallback path the file is read whole and fully validated. Any detected
// corruption — truncation, bad header, checksum mismatch, layout or
// containment violations — is an error; the caller is expected to rebuild
// from the primary data instead.
func Load(path string, opts Options) (*Index, error) {
	m, err := mapfile.Open(path)
	if err != nil {
		return nil, err
	}
	if len(m.Data) < 4 {
		n := len(m.Data)
		m.Close()
		return nil, fmt.Errorf("flatidx: snapshot file %s too short (%d bytes)", path, n)
	}
	slab, tail := m.Data[:len(m.Data)-4], m.Data[len(m.Data)-4:]
	want := uint32(tail[0]) | uint32(tail[1])<<8 | uint32(tail[2])<<16 | uint32(tail[3])<<24

	if m.Mapped {
		snap, err := DecodeLite(slab)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("flatidx: snapshot file %s: %w", path, err)
		}
		snap.wantCRC = want
		snap.crcSet = true
		snap.mapped = int64(len(m.Data))
		snap.release = m.Close
		// The mapping lives exactly as long as the snapshot is reachable:
		// every reader pins the snapshot through its view, so by the time
		// the collector runs this finalizer no view (and no in-flight walk
		// holding one) can still touch the mapped slab — the
		// munmap-after-last-reference fence behind the atomic snapshot swap.
		runtime.SetFinalizer(snap, (*Snapshot).releaseMapping)
		x := NewFromSnapshot(snap, opts)
		x.openBytesRead = m.BytesRead
		return x, nil
	}

	if got := crc32.ChecksumIEEE(slab); got != want {
		return nil, fmt.Errorf("flatidx: snapshot file %s checksum mismatch (got %08x want %08x)", path, got, want)
	}
	snap, err := Decode(slab)
	if err != nil {
		return nil, fmt.Errorf("flatidx: snapshot file %s: %w", path, err)
	}
	x := NewFromSnapshot(snap, opts)
	x.openBytesRead = m.BytesRead
	return x, nil
}
