package twsim_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	twsim "repro"
)

// encodeReplSnapshot writes snap in the wire format WriteReplSnapshot
// documents: u32 magic "TWRS" | u32 version 1 | u64 seq | u64 count |
// count × (u8 deleted | u32 len | len × f64) | u32 crc of the rest.
func encodeReplSnapshot(snap *twsim.ReplSnapshot) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, 0x53525754)
	buf = binary.LittleEndian.AppendUint32(buf, 1)
	buf = binary.LittleEndian.AppendUint64(buf, snap.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(snap.Records)))
	for _, r := range snap.Records {
		flag := byte(0)
		if r.Deleted {
			flag = 1
		}
		buf = append(buf, flag)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Values)))
		for _, v := range r.Values {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// FuzzDecodeReplSnapshot drives the reader of the snapshot a replica
// bootstraps from with arbitrary bytes. It never panics, and a snapshot it
// accepts re-encodes to exactly the input bytes: the reader accepts one
// encoding of each state and nothing else. The seeds include a snapshot
// written by a real primary. `make fuzz-smoke` runs it briefly.
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
	f.Add(primary.Bytes())
	f.Add(encodeReplSnapshot(&twsim.ReplSnapshot{Seq: 9}))
	flagged := append([]byte(nil), primary.Bytes()...)
	flagged[24] = 2 // record 0's deleted flag, neither 0 nor 1
	binary.LittleEndian.PutUint32(flagged[len(flagged)-4:], crc32.ChecksumIEEE(flagged[:len(flagged)-4]))
	f.Add(flagged)
	f.Add(primary.Bytes()[:len(primary.Bytes())-5])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		snap, err := twsim.DecodeReplSnapshot(raw)
		if err != nil {
			return
		}
		if again := encodeReplSnapshot(snap); !bytes.Equal(again, raw) {
			t.Fatalf("an accepted %d-byte snapshot re-encodes to %d different bytes", len(raw), len(again))
		}
	})
}
