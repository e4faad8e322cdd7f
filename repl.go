package twsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/seq"
	"repro/internal/wal"
)

// Replication model: a WAL-enabled on-disk primary ships (1) a full-state
// snapshot — a header stamped with the WAL sequence number of its cut,
// then one WAL add frame per heap record slot in ID order with a remove
// frame after each tombstone, so the replica's dense ID space is identical
// to the primary's — and (2) the WAL tail beyond any sequence number,
// served as raw record bytes. Both are WAL frames, read by ParseWALRecords
// and applied by ApplyWALRecords, the walker Open's replay runs, through
// the replica's own write path. Because log order equals apply order and
// IDs are dense and never reused, the replica's state at applied sequence
// S is byte-for-byte the primary's state at S, and queries answer
// bit-identically. A tail request from before the primary's last
// checkpoint returns wal.ErrCompacted, and the replica re-syncs from a
// fresh snapshot: the walker skips the adds it already holds and applies
// the removes to IDs still live, since a slot only ever flips live →
// tombstoned.

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

// The snapshot header, little-endian: u32 magic "TWRF" | u32 version |
// u64 WAL sequence number of the cut | u64 record slots | u64 frames.
const (
	replMagic     = 0x46525754 // "TWRF"
	replVersion   = 3
	replHeaderLen = 32
	// replFrameBytes is a frame's size besides its sequence: length, type,
	// sequence number, ID and CRC (an add adds seq.EncodedSize).
	replFrameBytes = 4 + 1 + 8 + 4 + 4
)

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

// WriteReplSnapshot writes the database's full state to w and returns the
// WAL sequence number it reflects. The body is encoded under the read
// lock, so it is a consistent cut (writers wait, queries proceed), and
// written with one Write after the lock is released, so a reader that
// stops reading holds up its own connection only. An error before that
// Write means w received nothing.
//
// The body is a 32-byte header (u32 magic "TWRF" | u32 version 3 | u64
// seq | u64 record slots | u64 frames) followed by WAL frames
// (wal.AppendRecord)
// numbered from 1: one add frame per heap slot in ID order, and a remove
// frame after each tombstoned slot. A tombstone whose bytes no longer
// decode ships as a one-element placeholder — it is unreadable on the
// primary too, so replica queries cannot observe the difference.
func (db *DB) WriteReplSnapshot(w io.Writer) (seqno uint64, err error) {
	if db.wal == nil {
		return 0, ErrNoWAL
	}
	body, seqno, err := db.encodeReplSnapshot()
	if err != nil {
		return 0, err
	}
	_, err = w.Write(body)
	return seqno, err
}

func (db *DB) encodeReplSnapshot() (body []byte, seqno uint64, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	seqno = db.wal.LastSeq()
	slots := db.store.NumRecords()
	tombs := slots - db.store.Len()
	body = make([]byte, 0, replHeaderLen+int(db.store.Bytes())+replFrameBytes*(slots+tombs))
	body = binary.LittleEndian.AppendUint32(body, replMagic)
	body = binary.LittleEndian.AppendUint32(body, replVersion)
	body = binary.LittleEndian.AppendUint64(body, seqno)
	body = binary.LittleEndian.AppendUint64(body, uint64(slots))
	body = binary.LittleEndian.AppendUint64(body, 0) // frames, set below
	frame := uint64(0)
	appendFrame := func(r wal.Record) {
		frame++
		r.Seq = frame
		body = wal.AppendRecord(body, &r)
	}
	err = db.store.ScanAll(func(id seq.ID, s seq.Sequence, deleted bool) error {
		if s == nil {
			s = seq.Sequence{0} // undecodable tombstone placeholder
		}
		appendFrame(wal.NewAdd(id, s))
		if deleted {
			appendFrame(wal.NewRemove(id))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	binary.LittleEndian.PutUint64(body[24:], frame)
	return body, seqno, nil
}

// DecodeReplSnapshot reads a snapshot WriteReplSnapshot wrote: the WAL
// sequence number of its cut, its record slot count and its frames, read
// by ParseWALRecords. It refuses a body that holds a frame count other
// than its header's — which is what catches a body cut at a frame
// boundary, the remove frames after the last add included — add frames
// that do not cover slots 0 … slots−1 in ID order exactly, a remove of a
// slot not yet added, and an add no write door would take (empty or
// non-finite), so a snapshot it accepts applies through ApplyWALRecords
// without a gap or a refusal.
func DecodeReplSnapshot(raw []byte) (seqno uint64, slots int, recs []wal.Record, err error) {
	if len(raw) < replHeaderLen {
		return 0, 0, nil, fmt.Errorf("twsim: snapshot too short (%d bytes)", len(raw))
	}
	if binary.LittleEndian.Uint32(raw) != replMagic {
		return 0, 0, nil, errors.New("twsim: snapshot bad magic")
	}
	if v := binary.LittleEndian.Uint32(raw[4:]); v != replVersion {
		return 0, 0, nil, fmt.Errorf("twsim: unsupported snapshot version %d", v)
	}
	seqno, count := binary.LittleEndian.Uint64(raw[8:]), binary.LittleEndian.Uint64(raw[16:])
	frames := binary.LittleEndian.Uint64(raw[24:])
	if recs, err = ParseWALRecords(raw[replHeaderLen:], 1); err != nil {
		return 0, 0, nil, err
	}
	if uint64(len(recs)) != frames {
		return 0, 0, nil, fmt.Errorf("twsim: snapshot holds %d frames, its header %d", len(recs), frames)
	}
	next := uint64(0) // the slot the next add frame must start at
	for _, r := range recs {
		if r.Type == wal.TypeRemove {
			if uint64(r.ID) >= next {
				return 0, 0, nil, fmt.Errorf("twsim: snapshot frame %d removes slot %d before its add", r.Seq, r.ID)
			}
			continue
		}
		if uint64(r.ID) != next {
			return 0, 0, nil, fmt.Errorf("twsim: snapshot frame %d adds at slot %d, want %d", r.Seq, r.ID, next)
		}
		for _, s := range r.Data {
			if len(s) == 0 || seq.CheckFinite(s) != nil {
				return 0, 0, nil, fmt.Errorf("twsim: snapshot frame %d adds an empty or non-finite sequence at slot %d", r.Seq, next)
			}
			next++
		}
	}
	if next != count {
		return 0, 0, nil, fmt.Errorf("twsim: snapshot add frames cover %d record slots, its header %d", next, count)
	}
	return seqno, int(count), recs, nil
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

// ParseWALRecords decodes WAL frames — the bytes WALTail serves and a
// snapshot's body — into records, validating per-record CRCs and the
// dense sequence numbering starting at firstSeq (the cursor + 1).
func ParseWALRecords(data []byte, firstSeq uint64) ([]wal.Record, error) {
	recs, n, err := wal.ScanRecords(data, firstSeq)
	if err != nil {
		return nil, fmt.Errorf("twsim: wal frames corrupt at byte %d: %w", n, err)
	}
	return recs, nil
}
