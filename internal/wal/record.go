package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/seq"
)

// Record types. The WAL mirrors the three heap mutations exactly.
const (
	TypeAdd      byte = 1 // one sequence appended at ID
	TypeAddBatch byte = 2 // len(Data) sequences appended at consecutive IDs from ID
	TypeRemove   byte = 3 // ID tombstoned
)

// Record is one logged heap mutation. Seq is the log sequence number:
// assigned densely by the log, monotone across checkpoints, never reused.
// ID is the heap record ID the mutation applies at (first ID for a
// batch). Data carries the appended sequence(s); nil for removes.
type Record struct {
	Seq  uint64
	Type byte
	ID   seq.ID
	Data []seq.Sequence
}

// NewAdd builds an unsequenced add record (Seq is assigned at append).
func NewAdd(id seq.ID, s seq.Sequence) Record {
	return Record{Type: TypeAdd, ID: id, Data: []seq.Sequence{s}}
}

// NewAddBatch builds an unsequenced add-batch record; first is the ID of
// ss[0], the rest follow consecutively.
func NewAddBatch(first seq.ID, ss []seq.Sequence) Record {
	return Record{Type: TypeAddBatch, ID: first, Data: ss}
}

// NewRemove builds an unsequenced remove record.
func NewRemove(id seq.ID) Record {
	return Record{Type: TypeRemove, ID: id}
}

// On-disk record layout, little-endian:
//
//	u32 n        — byte length of the framed body (type..payload, no CRC)
//	u8  type
//	u64 seq
//	payload      — type-specific, see below
//	u32 crc      — CRC-32 (IEEE) of the framed body
//
// Payloads:
//
//	add:       u32 id | seq.Encode bytes
//	add-batch: u32 firstID | u32 count | count × (seq.Encode bytes)
//	add-batch sequences are self-framing (seq.Encode leads with a length)
//	remove:    u32 id
//
// A record is valid only if the frame fits the remaining bytes, the CRC
// matches, and its seq is exactly the predecessor's seq + 1 (seqs are
// dense within a log file, starting at the header's base). Anything else
// is treated as the torn tail.
const recHeaderLen = 4

var crcTable = crc32.MakeTable(crc32.IEEE)

// ErrCorrupt reports a structurally-invalid record mid-scan.
var ErrCorrupt = errors.New("wal: corrupt record")

// AppendRecord appends r's frame to dst: the one encoder of the log's
// records and of a replication snapshot's body (twsim.WriteReplSnapshot).
func AppendRecord(dst []byte, r *Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // frame length, patched below
	body := len(dst)
	dst = append(dst, r.Type)
	dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	switch r.Type {
	case TypeAdd:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.ID))
		dst = seq.Encode(dst, r.Data[0])
	case TypeAddBatch:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.ID))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Data)))
		for _, s := range r.Data {
			dst = seq.Encode(dst, s)
		}
	case TypeRemove:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.ID))
	default:
		panic(fmt.Sprintf("wal: unknown record type %d", r.Type))
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-body))
	crc := crc32.Checksum(dst[body:], crcTable)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// parseRecord decodes one record from the front of buf. It returns the
// record and the total bytes consumed, or ErrCorrupt (wrapped with
// detail) if the frame is torn or fails its checks.
func parseRecord(buf []byte) (Record, int, error) {
	if len(buf) < recHeaderLen {
		return Record{}, 0, fmt.Errorf("%w: torn frame header", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(buf))
	total := recHeaderLen + n + 4
	if n < 1+8 || len(buf) < total {
		return Record{}, 0, fmt.Errorf("%w: torn frame (%d body bytes, %d available)", ErrCorrupt, n, len(buf)-recHeaderLen)
	}
	body := buf[recHeaderLen : recHeaderLen+n]
	want := binary.LittleEndian.Uint32(buf[recHeaderLen+n:])
	if got := crc32.Checksum(body, crcTable); got != want {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	r := Record{Type: body[0], Seq: binary.LittleEndian.Uint64(body[1:])}
	payload := body[9:]
	switch r.Type {
	case TypeAdd:
		if len(payload) < 4 {
			return Record{}, 0, fmt.Errorf("%w: short add payload", ErrCorrupt)
		}
		r.ID = seq.ID(binary.LittleEndian.Uint32(payload))
		s, used, err := seq.Decode(payload[4:])
		if err != nil || used != len(payload)-4 {
			return Record{}, 0, fmt.Errorf("%w: add payload: %v", ErrCorrupt, err)
		}
		r.Data = []seq.Sequence{s}
	case TypeAddBatch:
		if len(payload) < 8 {
			return Record{}, 0, fmt.Errorf("%w: short batch payload", ErrCorrupt)
		}
		r.ID = seq.ID(binary.LittleEndian.Uint32(payload))
		count := int(binary.LittleEndian.Uint32(payload[4:]))
		rest := payload[8:]
		if count <= 0 || count > len(rest) {
			return Record{}, 0, fmt.Errorf("%w: batch count %d", ErrCorrupt, count)
		}
		r.Data = make([]seq.Sequence, 0, count)
		for i := 0; i < count; i++ {
			s, used, err := seq.Decode(rest)
			if err != nil {
				return Record{}, 0, fmt.Errorf("%w: batch sequence %d: %v", ErrCorrupt, i, err)
			}
			r.Data = append(r.Data, s)
			rest = rest[used:]
		}
		if len(rest) != 0 {
			return Record{}, 0, fmt.Errorf("%w: %d trailing batch bytes", ErrCorrupt, len(rest))
		}
	case TypeRemove:
		if len(payload) != 4 {
			return Record{}, 0, fmt.Errorf("%w: remove payload length %d", ErrCorrupt, len(payload))
		}
		r.ID = seq.ID(binary.LittleEndian.Uint32(payload))
	default:
		return Record{}, 0, fmt.Errorf("%w: unknown type %d", ErrCorrupt, r.Type)
	}
	return r, total, nil
}

// ScanRecords parses consecutive records from buf, enforcing that seqs
// are dense starting at base. It returns the valid prefix, the number of
// bytes it spans, and a non-nil error describing why the scan stopped
// early (nil when buf was consumed exactly). A torn or corrupt record —
// including a seq discontinuity — ends the valid prefix; the records
// before it are still returned.
func ScanRecords(buf []byte, base uint64) (recs []Record, n int, err error) {
	next := base
	for n < len(buf) {
		r, used, perr := parseRecord(buf[n:])
		if perr != nil {
			return recs, n, perr
		}
		if r.Seq != next {
			return recs, n, fmt.Errorf("%w: sequence gap (got %d want %d)", ErrCorrupt, r.Seq, next)
		}
		recs = append(recs, r)
		next++
		n += used
	}
	return recs, n, nil
}
