package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
)

// Request bodies are read once and decoded by one of two paths. The bodies
// the benchmark and the Go client send — /sequences, /sequences/batch,
// /search and /knn — have a hand-written scanner for their canonical shape:
// one JSON object whose keys are the request's field names, spelt exactly,
// unescaped, each at most once, in any order. It decodes into locals and
// commits only when the whole body is accepted. The /subseq/* bodies, and
// anything the scanner declines — a key that differs only in case, an
// escaped or duplicate key, null, a fraction or an exponent where an int
// goes, a number outside JSON's grammar or its field's range, a syntax
// error, trailing data — go to decodeJSON, encoding/json's decoder over the
// same bytes. The scanner accepts only input that encoding/json decodes to
// the same values: each float is the correctly rounded float64, which has
// one answer, found from one pass over its digits (Clinger's exact path or
// Eisel–Lemire) with strconv.ParseFloat as the fallback, and each int is
// read exactly or declined. So the accepted language, the decoded values,
// the status codes and the error texts are encoding/json's;
// FuzzDecodeMatchesEncodingJSON holds the whole decoder to encoding/json,
// and FuzzScanFloatMatchesParseFloat each number to strconv.ParseFloat.

// The request bodies the scanner reads. They are aliases, so the structs
// stay unnamed and encoding/json's type errors name a field ".k", as they
// did when each handler declared its struct inline.
type (
	valuesRequest = struct {
		Values []float64 `json:"values"`
	}
	batchRequest = struct {
		Sequences [][]float64 `json:"sequences"`
	}
	// Band, in a query body, is the optional Sakoe–Chiba band half-width
	// the query answers under: omitted = the backend's configured default,
	// 0 = unconstrained, ≥ 1 = banded, negative = 400.
	searchRequest = struct {
		Query   []float64 `json:"query"`
		Epsilon float64   `json:"epsilon"`
		Band    *int      `json:"band"`
	}
	knnRequest = struct {
		Query []float64 `json:"query"`
		K     int       `json:"k"`
		Band  *int      `json:"band"`
	}
)

// firstRead bounds the buffer readBody allocates before any body byte has
// arrived: a client that declares a large Content-Length and then stalls
// holds at most this much until it sends more.
const firstRead = 64 << 10

// decodeBody reads the request body once and decodes it into dst. A body
// over MaxBodyBytes answers 413 whatever its content; one that does not
// decode answers 400. It reports whether the handler may go on.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	body, err := readBody(r)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return false
	}
	if scan(body, dst) {
		return true
	}
	if err := decodeJSON(body, dst); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// readBody reads the whole body. When the client sent a Content-Length
// within the cap, the buffer starts at min(Content-Length, firstRead) and
// doubles as reads fill it, so memory follows the bytes received and a body
// of up to firstRead bytes is one exact-size allocation. Once the next
// doubling would reach a quarter of Content-Length it grows straight to
// Content-Length instead: the buffer still holds at most eight times the
// bytes received, and a large body skips the last doublings' zeroing and
// copying. Otherwise it is a growing read that the server's MaxBytesReader
// stops at the cap.
func readBody(r *http.Request) ([]byte, error) {
	n := r.ContentLength
	if n < 0 || n > MaxBodyBytes {
		return io.ReadAll(r.Body)
	}
	buf, filled := make([]byte, min(n, firstRead)), 0
	for {
		if _, err := io.ReadFull(r.Body, buf[filled:]); err != nil {
			if err == io.EOF && filled > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if int64(len(buf)) == n {
			return buf, nil
		}
		size := 2 * int64(len(buf))
		if 4*size >= n {
			size = n
		}
		next := make([]byte, size)
		filled = copy(next, buf)
		buf = next
	}
}

// decodeJSON is the reference path: encoding/json with unknown fields
// refused and nothing but whitespace allowed after the value.
func decodeJSON(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// scan decodes a canonical body into dst, one of the request types above,
// or reports false and leaves dst as it was.
func scan(body []byte, dst any) bool {
	s := scanner{b: body}
	switch req := dst.(type) {
	case *valuesRequest:
		var r valuesRequest
		if !s.object(field{"values", func() (ok bool) { r.Values, ok = s.floats(); return ok }}) {
			return false
		}
		*req = r
	case *batchRequest:
		var r batchRequest
		if !s.object(field{"sequences", func() (ok bool) { r.Sequences, ok = s.floatArrays(); return ok }}) {
			return false
		}
		*req = r
	case *searchRequest:
		var r searchRequest
		if !s.object(
			field{"query", func() (ok bool) { r.Query, ok = s.floats(); return ok }},
			field{"epsilon", func() (ok bool) { r.Epsilon, ok = s.float(); return ok }},
			field{"band", func() (ok bool) { r.Band, ok = s.intPtr(); return ok }},
		) {
			return false
		}
		*req = r
	case *knnRequest:
		var r knnRequest
		if !s.object(
			field{"query", func() (ok bool) { r.Query, ok = s.floats(); return ok }},
			field{"k", func() (ok bool) { r.K, ok = s.int(); return ok }},
			field{"band", func() (ok bool) { r.Band, ok = s.intPtr(); return ok }},
		) {
			return false
		}
		*req = r
	default:
		return false
	}
	return true
}

// scanner walks a request body in canonical JSON. Every method reports
// false on anything outside that shape and leaves the decision to
// decodeJSON; none of them allocates but floats and floatArrays, each once
// per array, at the array's exact length, and intPtr.
type scanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (s *scanner) next(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// field is one key an object may hold and the reader of its value.
type field struct {
	name  string
	value func() bool
}

// object walks a body that is one JSON object followed only by whitespace,
// each key one of fields' names spelt exactly and unescaped, at most once,
// in any order; the field's value reads the value. Any other key, or one
// given twice, declines. A field that is absent keeps its zero value, as
// encoding/json leaves it.
func (s *scanner) object(fields ...field) bool {
	if !s.next('{') {
		return false
	}
	if !s.next('}') {
		var seen uint64
		for {
			j := s.key(fields)
			if j < 0 || seen&(1<<j) != 0 || !s.next(':') || !fields[j].value() {
				return false
			}
			seen |= 1 << j
			if s.next('}') {
				break
			}
			if !s.next(',') {
				return false
			}
		}
	}
	s.ws()
	return s.i == len(s.b)
}

// key consumes a quoted key and returns the index of the field it names,
// or -1.
func (s *scanner) key(fields []field) int {
	if !s.next('"') {
		return -1
	}
	end := bytes.IndexByte(s.b[s.i:], '"')
	if end < 0 {
		return -1
	}
	k := s.b[s.i : s.i+end]
	s.i += end + 1
	for j, f := range fields {
		if string(k) == f.name {
			return j
		}
	}
	return -1 // unknown, a case variant or escaped: encoding/json decides
}

// int consumes an integer as encoding/json decodes it into an int,
// -?(0|[1-9][0-9]*). A fraction or an exponent, which encoding/json refuses
// for an int, declines, and so does a number of more than 18 digits, which
// may not fit.
func (s *scanner) int() (int, bool) {
	s.ws()
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v uint64
	for ; i < len(b) && isDigit(b[i]); i++ { // past 18 digits v may wrap, and declines
		v = v*10 + uint64(b[i]-'0')
	}
	n := i - start
	if n == 0 || n > 18 || v > math.MaxInt || (n > 1 && b[start] == '0') ||
		(i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E')) {
		return 0, false
	}
	s.i = i
	if neg {
		return -int(v), true
	}
	return int(v), true
}

// intPtr is int for a *int field: a new int, as encoding/json allocates one.
func (s *scanner) intPtr() (*int, bool) {
	v, ok := s.int()
	if !ok {
		return nil, false
	}
	return &v, true
}

// float consumes one number in JSON's grammar as encoding/json decodes it
// into a float64: the correctly rounded value, the one strconv.ParseFloat
// gives. It reads the text once, into a decimal that fastFloat rounds; a
// number fastFloat cannot round goes to strconv.ParseFloat on its text, and
// an overflow declines, for encoding/json to answer.
func (s *scanner) float() (float64, bool) {
	s.ws()
	start := s.i
	d, ok := s.decimal()
	if !ok {
		return 0, false
	}
	if f, ok := d.fastFloat(); ok {
		return f, true
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return f, err == nil
}

// decimal is a scanned number, ±man × 10^exp10. man holds its first 19
// significant digits, as strconv's own reader counts them; trunc marks a
// non-zero digit after those.
type decimal struct {
	man        uint64
	exp10      int
	neg, trunc bool
}

// decimal consumes one number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, at s.i.
func (s *scanner) decimal() (decimal, bool) {
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var man uint64
	nd, exp10, trunc := 0, 0, false // nd significant digits are in man
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b); i++ {
			d := b[i] - '0'
			if d > 9 {
				break
			}
			if nd < 19 {
				man = man*10 + uint64(d)
				nd++
			} else {
				exp10++
				trunc = trunc || d != 0
			}
		}
	default:
		return decimal{}, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		if nd == 0 { // a leading zero is not significant
			for ; i < len(b) && b[i] == '0'; i++ {
				exp10--
			}
		}
		for ; i < len(b); i++ {
			d := b[i] - '0'
			if d > 9 {
				break
			}
			if nd < 19 {
				man = man*10 + uint64(d)
				nd++
				exp10--
			} else {
				trunc = trunc || d != 0
			}
		}
		if i == frac {
			return decimal{}, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return decimal{}, false
		}
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 10000 { // saturates as strconv's reader does: far outside float64 either way
				e = e*10 + int(b[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	s.i = i
	return decimal{man: man, exp10: exp10, neg: neg, trunc: trunc}, true
}

// fastFloat rounds d without its text: ±0, Clinger's exact path, then
// Eisel–Lemire. It reports false for what only strconv can round — a
// truncated mantissa, an exact halfway case Eisel–Lemire cannot settle, a
// subnormal, an overflow.
func (d decimal) fastFloat() (float64, bool) {
	switch {
	case d.man == 0:
		if d.neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	case d.trunc:
		return 0, false
	}
	if f, ok := exactFloat(d.man, d.exp10, d.neg); ok {
		return f, true
	}
	return eiselLemire64(d.man, d.exp10, d.neg)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// exactPow10 holds the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exactFloat is Clinger's fast path: a mantissa below 2^53 and a power of
// ten up to 10^22 are both exact float64s, so one multiply or divide rounds
// ±man × 10^exp10 correctly.
func exactFloat(man uint64, exp10 int, neg bool) (float64, bool) {
	if man>>53 != 0 || exp10 < -22 || exp10 > 22 {
		return 0, false
	}
	f := float64(man)
	if exp10 >= 0 {
		f *= exactPow10[exp10]
	} else {
		f /= exactPow10[-exp10]
	}
	if neg {
		f = -f
	}
	return f, true
}

// floats consumes an array of numbers into a slice of its exact length;
// [] is an empty, non-nil slice, as encoding/json makes it.
func (s *scanner) floats() ([]float64, bool) {
	if !s.next('[') {
		return nil, false
	}
	// Count before filling: in an array of numbers the first ']' closes
	// it, and its n elements are n-1 commas apart. Input that is not such
	// an array fails the filling pass below; n numbers take at least 2n-1
	// bytes, so a run of bare commas declines before it allocates.
	end := bytes.IndexByte(s.b[s.i:], ']')
	if end < 0 {
		return nil, false
	}
	n := 0
	if c := *s; !c.next(']') {
		n = bytes.Count(s.b[s.i:s.i+end], []byte{','}) + 1
	}
	if 2*n-1 > end {
		return nil, false
	}
	out := make([]float64, n)
	for k := range out {
		if k > 0 && !s.next(',') {
			return nil, false
		}
		v, ok := s.float()
		if !ok {
			return nil, false
		}
		out[k] = v
	}
	if !s.next(']') {
		return nil, false
	}
	return out, true
}

// floatArrays consumes an array of arrays of numbers, the outer slice and
// each inner one allocated at its exact length.
func (s *scanner) floatArrays() ([][]float64, bool) {
	if !s.next('[') {
		return nil, false
	}
	// Count the inner arrays on a copy, jumping each to its first ']'.
	c, n := *s, 0
	if !c.next(']') {
		for {
			if !c.next('[') {
				return nil, false
			}
			end := bytes.IndexByte(c.b[c.i:], ']')
			if end < 0 {
				return nil, false
			}
			c.i += end + 1
			n++
			if c.next(']') {
				break
			}
			if !c.next(',') {
				return nil, false
			}
		}
	}
	out := make([][]float64, n)
	for k := range out {
		if k > 0 && !s.next(',') {
			return nil, false
		}
		var ok bool
		if out[k], ok = s.floats(); !ok {
			return nil, false
		}
	}
	if !s.next(']') {
		return nil, false
	}
	return out, true
}
