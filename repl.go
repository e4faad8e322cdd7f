package twsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/seq"
	"repro/internal/wal"
)

// Replication model: a WAL-enabled on-disk primary ships (1) a full-state
// snapshot — every heap record slot in ID order, tombstones included, so
// the replica's dense ID space is identical to the primary's — stamped
// with the WAL sequence number it reflects, and (2) the WAL tail beyond
// any sequence number, served as raw record bytes. A replica bootstraps
// from the snapshot, then applies the streamed tail through its own
// normal write path; because log order equals apply order and IDs are
// dense and never reused, the replica's state at applied sequence S is
// byte-for-byte the primary's state at S, and queries answer
// bit-identically. A tail request from before the primary's last
// checkpoint returns wal.ErrCompacted, and the replica re-syncs from a
// fresh snapshot — an incremental diff, since existing IDs never change
// retroactively (a slot only ever flips live → tombstoned).

// ErrNoWAL is returned by the replication entry points on a database
// without a write-ahead log: without the log there is no sequence-number
// cursor to stream a tail against.
var ErrNoWAL = errors.New("twsim: replication requires a WAL-enabled on-disk database")

// ErrWALCompacted re-exports wal.ErrCompacted for replication callers: a
// tail cursor from before the primary's last checkpoint cannot be served
// and the replica must re-sync from a snapshot.
var ErrWALCompacted = wal.ErrCompacted

// ErrReplicaDiverged means a record stream does not line up with the
// replica's dense ID space — the replica must re-bootstrap from a
// snapshot.
var ErrReplicaDiverged = errors.New("twsim: replica diverged from primary record stream")

const (
	snapMagic   = 0x53525754 // "TWRS"
	snapVersion = 1
)

// ReplRecord is one heap slot in a shipped snapshot.
type ReplRecord struct {
	Deleted bool
	Values  []float64
}

// ReplSnapshot is a primary's full state at WAL sequence number Seq:
// every record slot in ID order, tombstones included.
type ReplSnapshot struct {
	Seq     uint64
	Records []ReplRecord
}

// WALTail returns the serialized durable log records after sequence
// number from, capped near maxBytes on a record boundary, plus the
// sequence number of the last record included (== from when the replica
// is caught up). wal.ErrCompacted means from predates the last
// checkpoint and the caller must re-sync from a snapshot.
func (db *DB) WALTail(from uint64, maxBytes int) (data []byte, last uint64, err error) {
	if db.wal == nil {
		return nil, 0, ErrNoWAL
	}
	return db.wal.TailSince(from, maxBytes)
}

// WALTailBase returns the oldest sequence number still present in the
// log (tails from before it are compacted away).
func (db *DB) WALTailBase() (uint64, error) {
	if db.wal == nil {
		return 0, ErrNoWAL
	}
	return db.wal.Base(), nil
}

// WriteReplSnapshot streams the database's full state to w in the
// snapshot wire format and returns the WAL sequence number it reflects.
// The read lock is held from reading that number to the last record, so
// the snapshot is a consistent cut: writers wait, queries proceed.
// Tombstoned slots whose bytes no longer decode are shipped as a
// one-element placeholder — they are unreadable on the primary too, so
// replica queries cannot observe the difference.
//
// Wire format, little-endian, CRC-32 (IEEE) of everything before the
// trailer: u32 magic "TWRS" | u32 version | u64 seq | u64 count |
// count × (u8 deleted | u32 len | len × f64) | u32 crc.
func (db *DB) WriteReplSnapshot(w io.Writer) (seqno uint64, err error) {
	if db.wal == nil {
		return 0, ErrNoWAL
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	seqno = db.wal.LastSeq()
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	var scratch [16]byte
	writeU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := mw.Write(scratch[:4])
		return err
	}
	writeU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		_, err := mw.Write(scratch[:8])
		return err
	}
	if err := writeU32(snapMagic); err != nil {
		return 0, err
	}
	if err := writeU32(snapVersion); err != nil {
		return 0, err
	}
	if err := writeU64(seqno); err != nil {
		return 0, err
	}
	if err := writeU64(uint64(db.store.NumRecords())); err != nil {
		return 0, err
	}
	err = db.store.ScanAll(func(id seq.ID, s seq.Sequence, deleted bool) error {
		if s == nil {
			s = seq.Sequence{0} // undecodable tombstone placeholder
		}
		flag := byte(0)
		if deleted {
			flag = 1
		}
		if _, err := mw.Write([]byte{flag}); err != nil {
			return err
		}
		if err := writeU32(uint32(len(s))); err != nil {
			return err
		}
		for _, v := range s {
			if err := writeU64(math.Float64bits(v)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	sum := crc.Sum32()
	binary.LittleEndian.PutUint32(scratch[:4], sum)
	if _, err := w.Write(scratch[:4]); err != nil {
		return 0, err
	}
	return seqno, nil
}

// ReadReplSnapshot parses a snapshot produced by WriteReplSnapshot,
// verifying magic, version, framing, and checksum.
func ReadReplSnapshot(r io.Reader) (*ReplSnapshot, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeReplSnapshot(raw)
}

// DecodeReplSnapshot parses snapshot bytes (see WriteReplSnapshot for
// the format).
func DecodeReplSnapshot(raw []byte) (*ReplSnapshot, error) {
	if len(raw) < 24+4 {
		return nil, fmt.Errorf("twsim: snapshot too short (%d bytes)", len(raw))
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("twsim: snapshot checksum mismatch (got %08x want %08x)", got, want)
	}
	if binary.LittleEndian.Uint32(body[0:]) != snapMagic {
		return nil, errors.New("twsim: snapshot bad magic")
	}
	if v := binary.LittleEndian.Uint32(body[4:]); v != snapVersion {
		return nil, fmt.Errorf("twsim: unsupported snapshot version %d", v)
	}
	snap := &ReplSnapshot{Seq: binary.LittleEndian.Uint64(body[8:])}
	count := binary.LittleEndian.Uint64(body[16:])
	off := 24
	for i := uint64(0); i < count; i++ {
		if len(body) < off+5 {
			return nil, fmt.Errorf("twsim: snapshot truncated at record %d", i)
		}
		if body[off] > 1 {
			return nil, fmt.Errorf("twsim: snapshot record %d bad deleted flag %d", i, body[off])
		}
		deleted := body[off] == 1
		n := int(binary.LittleEndian.Uint32(body[off+1:]))
		off += 5
		if n <= 0 || len(body) < off+8*n {
			return nil, fmt.Errorf("twsim: snapshot record %d bad length %d", i, n)
		}
		vals := make([]float64, n)
		for k := 0; k < n; k++ {
			vals[k] = math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
			off += 8
		}
		snap.Records = append(snap.Records, ReplRecord{Deleted: deleted, Values: vals})
	}
	if off != len(body) {
		return nil, fmt.Errorf("twsim: %d trailing snapshot bytes", len(body)-off)
	}
	return snap, nil
}

// SyncFromReplSnapshot brings a replica database up to the snapshot's
// state through its normal write path. Because a replica's record stream is
// always a prefix of the primary's, syncing is purely incremental: slots
// the replica does not have yet are added (and tombstoned where the
// snapshot says so), and existing slots that the snapshot marks deleted are
// removed. It returns the mutation counts. The replication apply loop is
// the replica's only writer, so the record count read first stays current.
func SyncFromReplSnapshot(db *DB, snap *ReplSnapshot) (added, removed int, err error) {
	have := db.NumRecords()
	if have > len(snap.Records) {
		return 0, 0, fmt.Errorf("%w: replica has %d records, snapshot only %d", ErrReplicaDiverged, have, len(snap.Records))
	}
	for id := have; id < len(snap.Records); id++ {
		rec := snap.Records[id]
		got, err := db.Add(rec.Values)
		if err != nil {
			return added, removed, fmt.Errorf("twsim: snapshot sync add %d: %w", id, err)
		}
		if got != ID(id) {
			return added, removed, fmt.Errorf("%w: snapshot add landed at %d, want %d", ErrReplicaDiverged, got, id)
		}
		added++
		if rec.Deleted {
			if _, err := db.Remove(ID(id)); err != nil {
				return added, removed, fmt.Errorf("twsim: snapshot sync remove %d: %w", id, err)
			}
			removed++
		}
	}
	for id := 0; id < have; id++ {
		if !snap.Records[id].Deleted {
			continue
		}
		ok, err := db.Remove(ID(id))
		if err != nil {
			return added, removed, fmt.Errorf("twsim: snapshot sync remove %d: %w", id, err)
		}
		if ok {
			removed++
		}
	}
	return added, removed, nil
}

// ApplyWALRecords applies a streamed primary record tail to a replica
// database through its normal write path (walkWAL over db.Add and
// db.Remove). Records whose effects are already present are skipped; a
// record that neither matches the next slot nor a past one is
// ErrReplicaDiverged — re-sync from a snapshot. It returns the number of
// mutations applied and the last record sequence number processed.
func ApplyWALRecords(db *DB, recs []wal.Record) (applied int, last uint64, err error) {
	applied, last, err = walkWAL(db, recs)
	if errors.Is(err, errWALGap) {
		err = fmt.Errorf("%w: %v", ErrReplicaDiverged, err)
	}
	return applied, last, err
}

// ParseWALRecords decodes the raw bytes WALTail serves into records,
// validating per-record CRCs and the dense sequence numbering starting
// at firstSeq (the cursor + 1).
func ParseWALRecords(data []byte, firstSeq uint64) ([]wal.Record, error) {
	recs, n, err := wal.ScanRecords(data, firstSeq)
	if err != nil {
		return nil, fmt.Errorf("twsim: wal tail corrupt at byte %d: %w", n, err)
	}
	return recs, nil
}
