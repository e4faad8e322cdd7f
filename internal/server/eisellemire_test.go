package server

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/synth"
)

// The scanner walks JSON's number grammar without backtracking: it commits
// to the longest prefix of this first shape, and accepts only if that prefix
// is a whole JSON number.
var (
	numberPrefix = func() *regexp.Regexp {
		re := regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]*)?([eE][+-]?[0-9]*)?`)
		re.Longest()
		return re
	}()
	jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)
)

// checkScanFloat holds scanner.float on b to its references: JSON's number
// grammar for what it accepts and consumes, strconv.ParseFloat for the
// value and for the overflow it declines.
func checkScanFloat(t *testing.T, b []byte) {
	t.Helper()
	s := scanner{b: b}
	got, ok := s.float()
	lead := len(b) - len(bytes.TrimLeft(b, " \t\n\r"))
	tok := numberPrefix.Find(b[lead:])
	var want float64
	wantOK := tok != nil && jsonNumber.Match(tok)
	if wantOK {
		var err error
		want, err = strconv.ParseFloat(string(tok), 64)
		wantOK = err == nil
	}
	switch {
	case ok != wantOK:
		t.Fatalf("%q: scanner accepts %v, reference %v (token %q)", b, ok, wantOK, tok)
	case ok && math.Float64bits(got) != math.Float64bits(want):
		t.Fatalf("%q: scanned %v (%#016x), strconv %v (%#016x)",
			b, got, math.Float64bits(got), want, math.Float64bits(want))
	case ok && s.i != lead+len(tok):
		t.Fatalf("%q: consumed %d bytes, the token ends at %d", b, s.i, lead+len(tok))
	}
}

// renderNumber writes ±man × 10^exp as JSON number text in one of four
// forms, followed by a comma: man then an exponent; one digit, a point and
// the rest; fixed notation; and a fraction with leading and trailing zeros.
// The low two bits of form pick the form, the next ones vary the spelling.
func renderNumber(man uint64, exp int16, neg bool, form uint8) []byte {
	var b []byte
	if neg {
		b = append(b, '-')
	}
	digits := strconv.FormatUint(man, 10)
	e := int(exp)
	expPart := func(b []byte, e int) []byte {
		b = append(b, "eE"[form>>2&1])
		if e >= 0 && form>>3&1 == 1 {
			b = append(b, '+')
		}
		return strconv.AppendInt(b, int64(e), 10)
	}
	switch form & 3 {
	case 0:
		b = expPart(append(b, digits...), e)
	case 1:
		b = append(b, digits[0], '.')
		if len(digits) == 1 {
			b = append(b, '0')
		}
		b = expPart(append(b, digits[1:]...), e+len(digits)-1)
	case 2:
		e = max(-400, min(e, 400)) // keeps the text short
		switch point := len(digits) + e; {
		case e >= 0:
			b = append(append(b, digits...), strings.Repeat("0", e)...)
		case point > 0:
			b = append(append(append(b, digits[:point]...), '.'), digits[point:]...)
		default:
			b = append(append(append(b, "0."...), strings.Repeat("0", -point)...), digits...)
		}
	case 3:
		pad := int(form>>4) + 1
		b = append(append(b, "0."...), strings.Repeat("0", pad)...)
		b = append(append(b, digits...), strings.Repeat("0", pad)...)
		b = expPart(b, e+len(digits)+pad)
	}
	return append(b, ',')
}

// FuzzScanFloatMatchesParseFloat holds the scanner's number conversion to
// strconv.ParseFloat, on raw bytes and on (mantissa, exponent, sign, form)
// tuples rendered as JSON numbers: the same verdict, the same bits and the
// same bytes consumed.
func FuzzScanFloatMatchesParseFloat(f *testing.F) {
	for _, raw := range []string{
		"9007199254740993", "2.2250738585072011e-308", "4.9e-324",
		"1.7976931348623157e308", "1.7976931348623159e308",
		"1.00000000000000011102230246251565404236316680908203125", // 1 + 2^-53: a tie, to even
		"1.00000000000000011102230246251565404236316680908203126",
		"1234567890123456789", "12345678901234567890", "9999999999999999999",
		"18446744073709551616", "-0", "0e400", "1e-400", "1e12345678901234567890",
		"-1e-12345678901234567890", " \n1.5,", "1.", "1.e5", "-", "01", "1e+", "0.000001E-3",
	} {
		f.Add([]byte(raw), uint64(0), int16(0), false, uint8(0))
	}
	for _, tuple := range []struct {
		man  uint64
		exp  int16
		neg  bool
		form uint8
	}{
		{9007199254740993, 0, false, 0}, {1<<53 - 1, 23, true, 1}, {17976931348623157, 292, false, 4},
		{49, -325, false, 0}, {22250738585072011, -324, false, 2}, {123, -2, true, 2},
		{1, 22, false, 10}, {math.MaxUint64, -20, false, 1}, {5, -1, false, 3 | 0x30},
	} {
		f.Add([]byte(nil), tuple.man, tuple.exp, tuple.neg, tuple.form)
	}
	f.Fuzz(func(t *testing.T, raw []byte, man uint64, exp int16, neg bool, form uint8) {
		checkScanFloat(t, raw)
		checkScanFloat(t, renderNumber(man, exp, neg, form))
	})
}

// TestPow10TableEveryRow reaches every row of the powers-of-ten table, which
// fuzzing would take long to. Each row must be the truncation its
// definition names, R × 2^k ≤ 10^e < (R+1) × 2^k with k the binary exponent
// Eisel–Lemire infers from e (checked by multiplying, where the table is
// built by shifting and dividing): values cannot see a low bit of a row. And
// at each exponent, mantissas at the edges of Clinger's path and of 19
// digits and three random 17-digit ones must give strconv's bits.
func TestPow10TableEveryRow(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pow := func(b, n int) *big.Int {
		return new(big.Int).Exp(big.NewInt(int64(b)), big.NewInt(int64(max(n, 0))), nil)
	}
	for e := pow10Min; e <= pow10Max; e++ {
		row := pow10Table()[e-pow10Min]
		r := new(big.Int).Lsh(new(big.Int).SetUint64(row[1]), 64)
		r.Or(r, new(big.Int).SetUint64(row[0]))
		k := 217706*e>>16 - 127
		num := new(big.Int).Mul(pow(10, e), pow(2, -k))
		den := new(big.Int).Mul(pow(10, -e), pow(2, k))
		lo := new(big.Int).Mul(r, den)
		hi := new(big.Int).Add(lo, den)
		if r.BitLen() != 128 || lo.Cmp(num) > 0 || num.Cmp(hi) >= 0 {
			t.Fatalf("row 1e%d = %#x is not 10^%d truncated to 128 bits at 2^%d", e, r, e, k)
		}

		mans := []uint64{1, 1<<53 - 1, 1<<53 + 1, 1e19 - 1}
		for range 3 {
			mans = append(mans, 1e16+uint64(rng.Int63n(9e16)))
		}
		for _, m := range mans {
			checkScanFloat(t, []byte(strconv.FormatUint(m, 10)+"e"+strconv.Itoa(e)))
		}
	}
}

// TestWalkValuesTakeTheFastPath: every number of a load batch is rounded
// without strconv, so the load cannot quietly fall back to re-reading text.
func TestWalkValuesTakeTheFastPath(t *testing.T) {
	body := benchkit.BatchBody(synth.RandomWalkSetVaryLen(rand.New(rand.NewSource(7)), 1000, 64, 192))
	body = bytes.TrimPrefix(body, []byte(`{"sequences":`))
	n := 0
	for _, tok := range bytes.FieldsFunc(body, func(r rune) bool { return strings.ContainsRune("[],}", r) }) {
		s := scanner{b: tok}
		d, ok := s.decimal()
		if !ok || s.i != len(tok) {
			t.Fatalf("%q: not scanned as one number", tok)
		}
		got, ok := d.fastFloat()
		if !ok {
			t.Fatalf("%q: the fast paths declined it", tok)
		}
		if want, _ := strconv.ParseFloat(string(tok), 64); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: %v, strconv %v", tok, got, want)
		}
		n++
	}
	if n < 64_000 {
		t.Fatalf("only %d numbers in the corpus", n)
	}
}
