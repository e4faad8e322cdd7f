package wal

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/seq"
)

// FuzzScanRecords drives the log's record reader with arbitrary bytes and
// an arbitrary base sequence number. It never panics, the valid prefix it
// reports fits the input, the records it accepts carry dense sequence
// numbers from base, and re-encoding them through AppendRecord gives the
// accepted prefix back byte for byte: the reader accepts exactly what the
// writer writes. `make fuzz-smoke` runs it briefly.
func FuzzScanRecords(f *testing.F) {
	var log []byte
	for i, r := range []Record{
		NewAdd(0, seq.Sequence{1, 2, 3}),
		NewAddBatch(1, []seq.Sequence{{4}, {5, 6}, {}}),
		NewRemove(1),
		NewAdd(4, seq.Sequence{math.NaN(), math.Inf(-1), -0.0}),
	} {
		r.Seq = uint64(7 + i)
		log = AppendRecord(log, &r)
	}
	f.Add(log, uint64(7))
	f.Add(log, uint64(8))
	f.Add(log[:len(log)-3], uint64(7))
	flipped := append([]byte(nil), log...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped, uint64(7))
	f.Add([]byte{}, uint64(0))

	f.Fuzz(func(t *testing.T, data []byte, base uint64) {
		recs, n, err := ScanRecords(data, base)
		if n < 0 || n > len(data) {
			t.Fatalf("valid prefix of %d bytes in a %d-byte input", n, len(data))
		}
		if (err == nil) != (n == len(data)) {
			t.Fatalf("stopped after %d of %d bytes with error %v", n, len(data), err)
		}
		var again []byte
		for i := range recs {
			if recs[i].Seq != base+uint64(i) {
				t.Fatalf("record %d has seq %d, want %d", i, recs[i].Seq, base+uint64(i))
			}
			again = AppendRecord(again, &recs[i])
		}
		if !bytes.Equal(again, data[:n]) {
			t.Fatalf("re-encoding %d accepted records gives %d bytes, not the %d-byte prefix", len(recs), len(again), n)
		}
	})
}
