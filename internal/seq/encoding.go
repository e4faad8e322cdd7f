package seq

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary layout of an encoded sequence record:
//
//	uint32 little-endian  element count n
//	n × float64           IEEE-754 bits, little-endian
//
// The layout is stable and is what the heap file in internal/seqdb stores.

// EncodedSize returns the number of bytes Encode will produce for s.
func EncodedSize(s Sequence) int { return 4 + 8*len(s) }

// Encode appends the binary encoding of s to dst and returns the extended
// slice.
func Encode(dst []byte, s Sequence) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	for _, v := range s {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// Decode parses one encoded sequence from the front of buf, returning the
// sequence and the number of bytes consumed.
func Decode(buf []byte) (Sequence, int, error) {
	return DecodeInto(nil, buf)
}

// DecodeInto is Decode into dst's backing array when it is large enough (a
// new one otherwise); the returned sequence is what the caller keeps.
func DecodeInto(dst Sequence, buf []byte) (Sequence, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("seq: truncated header: %d bytes", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	need := 4 + 8*n
	if len(buf) < need {
		return nil, 0, fmt.Errorf("seq: truncated body: need %d bytes, have %d", need, len(buf))
	}
	if cap(dst) < n {
		dst = make(Sequence, n)
	}
	dst = dst[:n]
	body := buf[4:need]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return dst, need, nil
}
