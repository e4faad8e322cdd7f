package twsim_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	twsim "repro"
	"repro/internal/wal"
)

// encodeReplSnapshot writes a snapshot in the format WriteReplSnapshot
// documents: u32 magic "TWRF" | u32 version 3 | u64 seq | u64 slots |
// u64 frames | the records as WAL frames.
func encodeReplSnapshot(seqno uint64, slots int, recs []wal.Record) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, 0x46525754)
	buf = binary.LittleEndian.AppendUint32(buf, 3)
	buf = binary.LittleEndian.AppendUint64(buf, seqno)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(slots))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(recs)))
	for i := range recs {
		buf = wal.AppendRecord(buf, &recs[i])
	}
	return buf
}

// lastFrameStart returns the offset of a snapshot's last frame.
func lastFrameStart(raw []byte) int {
	off, last := 32, 32
	for off < len(raw) {
		last = off
		off += 4 + int(binary.LittleEndian.Uint32(raw[off:])) + 4
	}
	return last
}

// FuzzDecodeReplSnapshot drives the reader of the snapshot a replica
// bootstraps from with arbitrary bytes. It never panics, and a snapshot it
// accepts re-encodes to exactly the input bytes. The seeds are a snapshot
// written by a real primary, the empty state, a frame with a bad CRC, a
// body cut at a frame boundary, no bytes, and a body cut just before its
// trailing remove frame. `make fuzz-smoke` runs it briefly.
func FuzzDecodeReplSnapshot(f *testing.F) {
	db, err := twsim.Create(f.TempDir(), twsim.Options{WAL: true})
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range [][]float64{{1, 2, 3}, {4}, {math.SmallestNonzeroFloat64, math.Copysign(0, -1), 5}} {
		if _, err := db.Add(s); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := db.Remove(1); err != nil {
		f.Fatal(err)
	}
	var primary bytes.Buffer
	if _, err := db.WriteReplSnapshot(&primary); err != nil {
		f.Fatal(err)
	}
	if err := db.Close(); err != nil {
		f.Fatal(err)
	}
	raw := primary.Bytes()
	f.Add(raw)
	f.Add(encodeReplSnapshot(9, 0, nil))
	badCRC := append([]byte(nil), raw...)
	badCRC[len(badCRC)-1] ^= 0x01 // the last frame's CRC
	f.Add(badCRC)
	f.Add(raw[:lastFrameStart(raw)])
	f.Add([]byte{})
	f.Add(removeCutSnapshot(f))

	f.Fuzz(func(t *testing.T, raw []byte) {
		seqno, slots, recs, err := twsim.DecodeReplSnapshot(raw)
		if err != nil {
			return
		}
		if again := encodeReplSnapshot(seqno, slots, recs); !bytes.Equal(again, raw) {
			t.Fatalf("an accepted %d-byte snapshot re-encodes to %d different bytes", len(raw), len(again))
		}
	})
}

// removeCutSnapshot returns a real primary's snapshot of three records with
// slot 2 removed, cut at its last frame boundary: the cut drops only the
// trailing remove frame, so every add frame is still there.
func removeCutSnapshot(tb testing.TB) []byte {
	tb.Helper()
	db, err := twsim.Create(tb.TempDir(), twsim.Options{WAL: true})
	if err != nil {
		tb.Fatal(err)
	}
	defer db.Close()
	for _, s := range [][]float64{{1, 2}, {3}, {4, 5, 6}} {
		if _, err := db.Add(s); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := db.Remove(2); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := db.WriteReplSnapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	raw := buf.Bytes()
	return raw[:lastFrameStart(raw)]
}

// TestDecodeReplSnapshotRefusesCutRemoves: a snapshot cut right after its
// last add frame loses the removes that follow it. Applied, the replica
// would keep the removed slot live for good, since the remove predates the
// cut and no tail carries it again, so the reader must refuse it.
func TestDecodeReplSnapshotRefusesCutRemoves(t *testing.T) {
	cut := removeCutSnapshot(t)
	seqno, slots, recs, err := twsim.DecodeReplSnapshot(cut)
	if err == nil {
		t.Fatalf("a snapshot without its trailing remove decoded: seq %d, %d slots, %d frames", seqno, slots, len(recs))
	}
}
