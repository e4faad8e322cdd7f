package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/synth"
)

// legacyDecodeBody decodes as encoding/json does when it streams from the
// body under the cap: the verdicts, statuses, error texts and values
// decodeBody must keep. It is the oracle the fuzz target holds decodeBody to.
func legacyDecodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return false
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		writeError(w, http.StatusBadRequest, errors.New("trailing data after JSON body"))
		return false
	}
	return true
}

// The request structs as the handlers declared them inline before
// decodeBody existed. They are unnamed, so encoding/json's type errors name
// a field ".k", where a named type T would make it "T.k"; the oracle
// decodes into these, which pins that text as well.
type (
	legacyValues = struct {
		Values []float64 `json:"values"`
	}
	legacyBatch = struct {
		Sequences [][]float64 `json:"sequences"`
	}
	legacySearch = struct {
		Query   []float64 `json:"query"`
		Epsilon float64   `json:"epsilon"`
		Band    *int      `json:"band"`
	}
	legacyKNN = struct {
		Query []float64 `json:"query"`
		K     int       `json:"k"`
		Band  *int      `json:"band"`
	}
	legacySubseqBuild = struct {
		WindowLens []int `json:"window_lens"`
		Step       int   `json:"step"`
	}
	legacySubseqSearch = struct {
		Query   []float64 `json:"query"`
		Epsilon float64   `json:"epsilon"`
	}
)

type decodeFunc func(http.ResponseWriter, *http.Request, any) bool

// runDecode sends body through decode as the server would (under the
// body cap) and returns the verdict, the status and the response text.
func runDecode(decode decodeFunc, body []byte, dst any) (bool, int, string) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	req.Body = http.MaxBytesReader(rec, req.Body, MaxBodyBytes)
	ok := decode(rec, req, dst)
	return ok, rec.Code, rec.Body.String()
}

// checkDecode holds decodeBody into a handler's request type T to
// legacyDecodeBody into the struct L that handler used to declare.
func checkDecode[T, L any](t *testing.T, body []byte) {
	t.Helper()
	var got T
	var want L
	gotOK, gotCode, gotText := runDecode(decodeBody, body, &got)
	wantOK, wantCode, wantText := runDecode(legacyDecodeBody, body, &want)
	if gotOK != wantOK || gotCode != wantCode || gotText != wantText {
		t.Fatalf("%T on %q: got (%v, %d, %q), encoding/json (%v, %d, %q)",
			got, body, gotOK, gotCode, gotText, wantOK, wantCode, wantText)
	}
	if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Fatalf("%T on %q: decoded %+v, encoding/json %+v", got, body, got, want)
	}
}

// sameBits is reflect.DeepEqual over the fields encoding/json can see —
// nil and empty slices differ — with floats compared by their bits.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if a.Type().Field(i).IsExported() && !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// canonicalBodies are the shapes the benchmark's client and the Go client
// send; the scanner takes each of them (TestScannerTakesTheCanonicalShape).
var canonicalBodies = []string{
	`{"values":[1.5,-2,3e-7,0]}`,
	`{"sequences":[[1,2,3],[4.25],[]]}`,
	`{"query":[0.1,0.2,-0.30000000000000004],"epsilon":0.25,"band":0}`,
	`{"query":[1,2,3],"k":10,"band":8}`,
	`{"query":[5,6],"epsilon":1}`,
}

func FuzzDecodeMatchesEncodingJSON(f *testing.F) {
	for _, b := range canonicalBodies {
		f.Add([]byte(b))
	}
	for _, b := range []string{
		`{"Query":[1]}`, `{"query":[1],"query":[2]}`, `{"values":null}`,
		`[1e400]`, `[-0]`, `[01]`, `[.5]`, `[+1]`, `{"k":1.0}`, `{"band":null}`,
		"\xef\xbb\xbf{\"values\":[1]}", `{"values":[1]} {}`, `{"values":[1]}x`,
		`{"values":[1e400]}`, `{"values":[-0]}`, `{"values":[01]}`, `{"k":-0}`,
		`{"sequences":[[1],[2,[3]]]}`, `{"query":[1],"epsilon":1e-400}`,
		"{\"values\" : [ 1 , 2 ] }\n", `{"values":[1]}`, `{}`, ``,
		`{"window_lens":[4,8],"step":2}`, `{"values":[1,]}`, `{"band":99999999999999999999}`,
		`{"values":[,,,]}`, `{"sequences":[[,,,]]}`, `{"sequences":[[1,,2]]}`,
		`{"sequences":[[1e400]]}`, `{"Sequences":[[1]]}`, `{"sequences":[[1]],"sequences":[[2]]}`,
		`{"sequences":null}`, `{"sequences":[null]}`, `{"sequences":"x"}`, `{"sequences":[["x"]]}`,
		`{"k":"x"}`, `{"query":"x","epsilon":1}`, `{"sequences":[[1]]}` + " \t\r\n",
		`{"sequences":[[9007199254740993,1.00000000000000011102230246251565404236316680908203125,4.9e-324,-0.0e7]]}`,
		`{"band":2,"k":3,"query":[1,2]}`, `{"epsilon":0.5,"query":[1],"band":0}`,
		`{"query":[1],"band":1,"band":2}`, `{"query":[1],"k":1e1}`,
		`{"query":[1],"k":9223372036854775808}`, `{"query":[1],"k":-0}`,
		`{"query":[1],"epsilon":-0}`, `{"band":null,"query":[1],"k":1}`,
	} {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode[legacyValues, legacyValues](t, body)
		checkDecode[batchRequest, legacyBatch](t, body)
		checkDecode[legacySearch, legacySearch](t, body)
		checkDecode[legacyKNN, legacyKNN](t, body)
		checkDecode[legacySubseqBuild, legacySubseqBuild](t, body)
		checkDecode[legacySubseqSearch, legacySubseqSearch](t, body)
	})
}

// The fuzz target's equality would hold vacuously if the scanner declined
// everything; the canonical bodies of every scanned request type must take
// the fast path.
func TestScannerTakesTheCanonicalShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	knn := knnBody(rng, 128)
	search := bytes.Replace(knn, []byte(`"k":10`), []byte(`"epsilon":0.30000000000000004`), 1)
	for _, c := range []struct {
		body []byte
		dst  any
	}{
		{[]byte(canonicalBodies[0]), new(valuesRequest)},
		{[]byte(canonicalBodies[1]), new(batchRequest)},
		{[]byte(canonicalBodies[2]), new(searchRequest)},
		{[]byte(canonicalBodies[3]), new(knnRequest)},
		{[]byte(canonicalBodies[4]), new(searchRequest)},
		{[]byte(`{}`), new(batchRequest)},
		{[]byte(" {\"sequences\" : [ [ 1 , -2.5e3 ] , [ ] ] }\n"), new(batchRequest)},
		{benchkit.BatchBody(synth.RandomWalkSet(rng, 50, 128)), new(batchRequest)},
		// The benchmark's /knn and /search bodies: query first, band last.
		{knn, new(knnRequest)},
		{search, new(searchRequest)},
		// The Go client's: encoding/json writes a map's keys sorted.
		{[]byte(`{"band":3,"epsilon":0.25,"query":[1,-2.5,3e-7]}`), new(searchRequest)},
		{[]byte(`{"epsilon":0.25,"query":[1,-2.5,3e-7]}`), new(searchRequest)},
		{[]byte(`{"band":3,"k":5,"query":[1,-2.5,3e-7]}`), new(knnRequest)},
		{[]byte(`{"k":5,"query":[1,-2.5,3e-7]}`), new(knnRequest)},
		{[]byte("\t{ \"k\" :\n5 ,\r\"query\" : [ 1 , 2 ] , \"band\" : -1 }\n "), new(knnRequest)},
	} {
		if !scan(c.body, c.dst) {
			t.Errorf("the scanner declined %T %.60q", c.dst, c.body)
		}
	}
}

// decodeAllocs is the allocations of one decodeBody of body into dst.
func decodeAllocs(t *testing.T, body []byte, dst any) float64 {
	t.Helper()
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/", rd)
	w := httptest.NewRecorder()
	return testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		if !decodeBody(w, r, dst) {
			t.Fatal("decode failed")
		}
	})
}

// A canonical batch allocates its body buffer, the outer slice and one
// slice per sequence, nothing else: no reflection, no string copy of a
// number.
func TestDecodeBatchAllocs(t *testing.T) {
	const seqs = 20
	body := benchkit.BatchBody(synth.RandomWalkSet(rand.New(rand.NewSource(2)), seqs, 64))
	if len(body) > firstRead {
		t.Fatalf("body of %d bytes takes more than one read buffer", len(body))
	}
	var req batchRequest
	if allocs := decodeAllocs(t, body, &req); allocs > 2+seqs {
		t.Fatalf("decoding a %d-sequence batch: %v allocations, want ≤ %d", seqs, allocs, 2+seqs)
	}
	if len(req.Sequences) != seqs || len(req.Sequences[seqs-1]) != 64 {
		t.Fatalf("decoded %d sequences", len(req.Sequences))
	}
}

// A canonical 128-element /knn body allocates its body buffer, the query
// slice and the band, nothing else: the field list's closures stay on the
// stack.
func TestDecodeQueryAllocs(t *testing.T) {
	var req knnRequest
	if allocs := decodeAllocs(t, knnBody(rand.New(rand.NewSource(2)), 128), &req); allocs > 3 {
		t.Fatalf("decoding a 128-element /knn body: %v allocations, want ≤ 3", allocs)
	}
	if len(req.Query) != 128 || req.K != 10 || req.Band == nil || *req.Band != 8 {
		t.Fatalf("decoded %d elements, k %d, band %v", len(req.Query), req.K, req.Band)
	}
}

// A run of bare commas is not an array of numbers: the scanner declines it
// before it sizes a slice from the comma count.
func TestScannerCommaRunAllocatesLittle(t *testing.T) {
	body := []byte(`{"sequences":[[` + strings.Repeat(",", 1<<20) + `]]}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if scan(body, new(batchRequest)) {
		t.Fatal("the scanner accepted a run of commas")
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 256<<10 { // 8 MiB without the check
		t.Fatalf("declining a %d-byte comma run allocated %d bytes", len(body), n)
	}
}

// stallReader hands out a few bytes and then ends, recording the largest
// read it was asked to fill: the size of the buffer readBody allocated.
type stallReader struct {
	data    []byte
	largest int
}

func (s *stallReader) Read(p []byte) (int, error) {
	s.largest = max(s.largest, len(p))
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.data)
	s.data = s.data[n:]
	return n, nil
}

// A client that declares the largest Content-Length the cap allows and then
// sends a few bytes makes the server hold firstRead bytes, not the
// declared length; a body that does arrive in full is read exactly.
func TestReadBodyFollowsTheBytesReceived(t *testing.T) {
	sr := &stallReader{data: []byte(`{"sequences":[[1,2`)}
	r := httptest.NewRequest(http.MethodPost, "/sequences/batch", sr)
	r.ContentLength = MaxBodyBytes
	w := httptest.NewRecorder()
	var req batchRequest
	if decodeBody(w, r, &req) || w.Code != http.StatusBadRequest {
		t.Fatalf("short body: ok or status %d, want 400", w.Code)
	}
	if sr.largest > firstRead {
		t.Fatalf("a %d-byte body with Content-Length %d got a %d-byte buffer, want ≤ %d",
			len(`{"sequences":[[1,2`), MaxBodyBytes, sr.largest, firstRead)
	}

	rng := rand.New(rand.NewSource(3))
	for _, seqs := range []int{1, 300} { // under firstRead, and several doublings over it
		body := benchkit.BatchBody(synth.RandomWalkSet(rng, seqs, 128))
		r := httptest.NewRequest(http.MethodPost, "/sequences/batch", bytes.NewReader(body))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := readBody(r)
		runtime.ReadMemStats(&after)
		if err != nil || !bytes.Equal(got, body) || cap(got) != len(body) {
			t.Fatalf("%d-byte body: read %d bytes (cap %d), %v", len(body), len(got), cap(got), err)
		}
		// The doublings stop below a quarter of the length and the last
		// step goes straight to it: ≈ 1.25× the body, where doubling all
		// the way up allocated ≈ 2–3×.
		if n := after.TotalAlloc - before.TotalAlloc; n > uint64(len(body))*3/2+64<<10 {
			t.Fatalf("%d-byte body: readBody allocated %d bytes", len(body), n)
		}
	}
}

// knnBody is a /knn body as the benchmark's client encodes it.
func knnBody(rng *rand.Rand, n int) []byte {
	b := []byte(`{"query":[`)
	for i, v := range synth.RandomWalk(rng, n) {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, `],"k":10,"band":8}`...)
}

// BenchmarkDecodeBody times decodeBody on the benchmark's request shapes:
// one 1 000-sequence /sequences/batch body (the load) and one 128-element
// /knn body (every query), both through the scanner, in
// bytes per second and nanoseconds per number in the body. Run at -cpu 1
// with -benchmem.
func BenchmarkDecodeBody(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	walks := synth.RandomWalkSetVaryLen(rng, 1000, 64, 192)
	values := 0
	for _, w := range walks {
		values += len(w)
	}
	for _, bc := range []struct {
		name    string
		body    []byte
		numbers int
		dst     func() any
	}{
		{"batch1000", benchkit.BatchBody(walks), values, func() any { return new(batchRequest) }},
		{"query128", knnBody(rng, 128), 128 + 2, func() any { return new(legacyKNN) }}, // the query, k and band
	} {
		b.Run(bc.name, func(b *testing.B) {
			rd := bytes.NewReader(bc.body)
			r := httptest.NewRequest(http.MethodPost, "/", rd)
			w := httptest.NewRecorder()
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(bc.body)
				if !decodeBody(w, r, bc.dst()) {
					b.Fatal("decode failed")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.numbers), "ns/number")
		})
	}
}
