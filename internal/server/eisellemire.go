// eiselLemire64 below is adapted from Go's strconv/eisel_lemire.go, which
// carries this notice:
//
// Copyright 2020 The Go Authors. All rights reserved.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//   - Redistributions of source code must retain the above copyright
//     notice, this list of conditions and the following disclaimer.
//   - Redistributions in binary form must reproduce the above
//     copyright notice, this list of conditions and the following disclaimer
//     in the documentation and/or other materials provided with the
//     distribution.
//   - Neither the name of Google LLC nor the names of its
//     contributors may be used to endorse or promote products derived from
//     this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

package server

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// The Eisel–Lemire conversion (Lemire, "Number Parsing at a Gigabyte per
// Second", arXiv:2101.11408; the steps are named as in
// https://nigeltao.github.io/blog/2020/eisel-lemire.html): a 64-bit decimal
// mantissa times a 128-bit truncated power of ten gives the float64 nearest
// man × 10^exp10, or reports that the truncation leaves the rounding in
// doubt. It never returns a wrong answer, only no answer.

// pow10Min and pow10Max are the powers of ten pow10Table holds, both
// inclusive: strconv's range, beyond which every float64 is 0 or ±Inf.
const (
	pow10Min = -348
	pow10Max = 347
)

// pow10Table holds, for each power of ten 10^e in [pow10Min, pow10Max], its
// 128-bit mantissa rounded down: the integer in [2^127, 2^128) that is
// 10^e × 2^k for the k that puts it there, truncated. Row e-pow10Min is
// {low 64 bits, high 64 bits}. Built once, from math/big.
var pow10Table = sync.OnceValue(func() *[pow10Max - pow10Min + 1][2]uint64 {
	var t [pow10Max - pow10Min + 1][2]uint64
	ten := big.NewInt(10)
	for e := pow10Min; e <= pow10Max; e++ {
		p := new(big.Int).Exp(ten, big.NewInt(int64(max(e, -e))), nil)
		if e >= 0 {
			// 10^e shifted into 128 bits: exact up to 10^38, truncated past.
			if n := p.BitLen(); n > 128 {
				p.Rsh(p, uint(n-128))
			} else {
				p.Lsh(p, uint(128-n))
			}
		} else {
			// 2^(127+n) / 10^-e with 2^(n-1) < 10^-e < 2^n lies strictly
			// between 2^127 and 2^128.
			p.Quo(new(big.Int).Lsh(big.NewInt(1), uint(127+p.BitLen())), p)
		}
		var b [16]byte
		p.FillBytes(b[:])
		t[e-pow10Min] = [2]uint64{binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint64(b[:8])}
	}
	return &t
})

// eiselLemire64 returns the float64 nearest ±man × 10^exp10, ties to even,
// or false when it cannot be sure of it: exp10 outside the table, a product
// whose truncated bits could carry, an exact halfway case, a subnormal or
// an overflow. man must not be 0.
func eiselLemire64(man uint64, exp10 int, neg bool) (float64, bool) {
	// Exp10 Range.
	if exp10 < pow10Min || pow10Max < exp10 {
		return 0, false
	}
	row := &pow10Table()[exp10-pow10Min]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, row[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, row[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64: 0 or a wrap below it is subnormal, 0x7FF and up
	// is Inf or NaN.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}
