package twsim_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	twsim "repro"
	"repro/internal/dtw"
	"repro/internal/seq"
)

// model is the brute-force reference every database answer is held to: the
// live sequences by ID, and the reference DP (dtw.BandDistance) run over all
// of them for each query. It has no index, no lower bound, no cache and no
// file, so an answer that differs from it is the database's fault — a
// missing match is a false dismissal, which Theorem 1 rules out.
type model struct {
	base twsim.Base
	seqs map[twsim.ID][]float64
}

func newModel(base twsim.Base) *model {
	return &model{base: base, seqs: map[twsim.ID][]float64{}}
}

// add records values[i] under ids[i], the IDs the database assigned.
func (m *model) add(ids []twsim.ID, values [][]float64) {
	for i, id := range ids {
		m.seqs[id] = append([]float64(nil), values[i]...)
	}
}

// addFrom records values under the consecutive IDs first, first+1, … that
// DB.AddAll assigns.
func (m *model) addFrom(first twsim.ID, values [][]float64) {
	for i, v := range values {
		m.seqs[first+twsim.ID(i)] = append([]float64(nil), v...)
	}
}

// remove deletes id, reporting whether it was live.
func (m *model) remove(id twsim.ID) bool {
	_, ok := m.seqs[id]
	delete(m.seqs, id)
	return ok
}

// distance is the distance a query under band answers: band 0 is the
// unconstrained distance, the dtw package's r < 0.
func (m *model) distance(s, q []float64, band int) float64 {
	if band == 0 {
		band = -1
	}
	return dtw.BandDistance(s, q, m.base, band)
}

// search is every live ID within ε of q, ascending by (Dist, ID).
func (m *model) search(q []float64, eps float64, band int) []twsim.Match {
	var out []twsim.Match
	for id, s := range m.seqs {
		if d := m.distance(s, q, band); d <= eps {
			out = append(out, twsim.Match{ID: id, Dist: d})
		}
	}
	sortByDistID(out)
	return out
}

// nearestK is the first k live IDs by (Dist, ID).
func (m *model) nearestK(q []float64, k, band int) []twsim.Match {
	out := make([]twsim.Match, 0, len(m.seqs))
	for id, s := range m.seqs {
		out = append(out, twsim.Match{ID: id, Dist: m.distance(s, q, band)})
	}
	sortByDistID(out)
	return out[:min(k, len(out))]
}

// candidates is the number of live sequences the paper's square range query
// admits at ε: every feature coordinate inside [c − r, c + r] around the
// query's, where r is ε, or √ε under L2Sq, whose matched pairs cost the
// squared difference.
func (m *model) candidates(q []float64, eps float64) int {
	r := eps
	if m.base == twsim.BaseL2Sq {
		r = math.Sqrt(eps)
	}
	center := seq.MustFeature(q).Vector()
	n := 0
	for _, s := range m.seqs {
		p := seq.MustFeature(s).Vector()
		in := true
		for i := range p {
			in = in && center[i]-r <= p[i] && p[i] <= center[i]+r
		}
		if in {
			n++
		}
	}
	return n
}

func sortByDistID(ms []twsim.Match) {
	sort.Slice(ms, func(i, j int) bool {
		return ms[i].Dist < ms[j].Dist || ms[i].Dist == ms[j].Dist && ms[i].ID < ms[j].ID
	})
}

// diffMatches describes the first way got differs from want — the same IDs
// in the same order at the same distance bits — or returns "".
func diffMatches(got, want []twsim.Match) string {
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return fmt.Sprintf("match %d is %+v, the model's is %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d matches, the model has %d (%v vs %v)", len(got), len(want), got, want)
	}
	return ""
}

// requireModelSearch runs a range query on b and requires the model's
// answer, the conservation law, and — unless the result cache answered —
// the model's count of square-range candidates.
func requireModelSearch(t *testing.T, b oracleBackend, m *model, q []float64, eps float64, band int) *twsim.Result {
	t.Helper()
	r, err := b.SearchCtx(context.Background(), q, eps, band)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffMatches(r.Matches, m.search(q, eps, band)); d != "" {
		t.Fatalf("search eps=%g band=%d q=%v: %s", eps, band, q, d)
	}
	requireConserved(t, r)
	if want := m.candidates(q, eps); !r.CacheHit && r.Stats.Candidates != want {
		t.Fatalf("search eps=%g band=%d q=%v: %d candidates, the square range query admits %d",
			eps, band, q, r.Stats.Candidates, want)
	}
	return r
}

// requireModelNearestK runs a k-NN query on b and requires the model's
// answer and the conservation law.
func requireModelNearestK(t *testing.T, b oracleBackend, m *model, q []float64, k, band int) *twsim.Result {
	t.Helper()
	r, err := b.NearestKCtx(context.Background(), q, k, band)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffMatches(r.Matches, m.nearestK(q, k, band)); d != "" {
		t.Fatalf("k-NN k=%d band=%d q=%v: %s", k, band, q, d)
	}
	requireConserved(t, r)
	return r
}

// requireConserved: every candidate is pruned by one tier or refined by one
// DP call.
func requireConserved(t *testing.T, r *twsim.Result) {
	t.Helper()
	pruned := r.Stats.LBPAAPruned + r.Stats.LBKeoghPruned + r.Stats.CorridorPruned
	if r.Stats.Candidates != pruned+r.Stats.DTWCalls {
		t.Fatalf("conservation law broken: candidates=%d pruned=%d dtw=%d",
			r.Stats.Candidates, pruned, r.Stats.DTWCalls)
	}
}

// harnessConfig is one point of the model harness's lattice.
type harnessConfig struct {
	storage    string // "mem", "file" (WAL off) or "wal" (file-backed, WAL on)
	band       int
	cacheBytes int64
}

func (c harnessConfig) String() string {
	return fmt.Sprintf("%s/Linf/band%d/cache%dKiB", c.storage, c.band, c.cacheBytes>>10)
}

func (c harnessConfig) options() twsim.Options {
	return twsim.Options{Band: c.band, ResultCacheBytes: c.cacheBytes, WAL: c.storage == "wal"}
}

// harness drives one database and the model through one op list.
type harness struct {
	t     *testing.T
	cfg   harnessConfig
	dir   string // the live directory; empty in memory
	db    twsim.Backend
	m     *model
	ids   []twsim.ID  // every ID the database assigned, in order, live or not
	asked [][]float64 // the last few fresh queries
	last  struct {    // the last query asked
		knn bool
		q   []float64
		eps float64
		k   int
	}
	data []byte // the undecoded rest of the op list
	// tally counts what the op list exercised, so a lattice point that
	// never reopened or never matched anything is caught as vacuous.
	tally struct{ ops, removed, matches, cacheHits, reopens, kills int }
}

// next decodes one byte of the op list; an exhausted list reads zeros.
func (h *harness) next() int {
	if len(h.data) == 0 {
		return 0
	}
	b := h.data[0]
	h.data = h.data[1:]
	return int(b)
}

// values decodes a sequence of 1–10 elements on a grid of quarters in
// [−3.75, 3.75]: coarse enough that equal distances, exact matches at ε 0
// and ties at the k-th distance are common.
func (h *harness) values() []float64 {
	v := make([]float64, 1+h.next()%10)
	for i := range v {
		v[i] = float64(int8(h.next())%16) / 4
	}
	return v
}

// query decodes a query: one asked before (so the result cache has
// something to answer), a live sequence's own values (so ε 0 has matches)
// or fresh values.
func (h *harness) query() []float64 {
	live := h.live()
	switch h.next() % 3 {
	case 0:
		if len(h.asked) > 0 {
			return h.asked[h.next()%len(h.asked)]
		}
	case 1:
		if len(live) > 0 {
			return h.m.seqs[live[h.next()%len(live)]]
		}
	}
	q := h.values()
	if h.asked = append(h.asked, q); len(h.asked) > 4 {
		h.asked = h.asked[1:]
	}
	return q
}

// live is the live IDs in assignment order.
func (h *harness) live() []twsim.ID {
	var out []twsim.ID
	for _, id := range h.ids {
		if _, ok := h.m.seqs[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

func (h *harness) open(create bool) {
	h.t.Helper()
	var err error
	switch {
	case h.cfg.storage == "mem":
		h.db, err = twsim.OpenMem(h.cfg.options())
	case create:
		h.db, err = twsim.Create(h.dir, h.cfg.options())
	default:
		h.db, err = twsim.Open(h.dir, h.cfg.options())
	}
	if err != nil {
		h.t.Fatalf("open %s: %v", h.dir, err)
	}
}

// reopen closes the database and opens its directory again.
func (h *harness) reopen() {
	h.t.Helper()
	if err := h.db.Close(); err != nil {
		h.t.Fatal(err)
	}
	h.open(false)
	h.requireContents()
	h.tally.reopens++
}

// kill opens a byte copy of the live directory taken while the database is
// open — the image a crash leaves — and carries on from the copy. Every
// acknowledged write must be in it.
func (h *harness) kill() {
	h.t.Helper()
	crash := filepath.Join(h.t.TempDir(), "crash")
	twsim.CopyTree(h.t, h.dir, crash)
	if err := h.db.Close(); err != nil {
		h.t.Fatal(err)
	}
	h.dir = crash
	h.open(false)
	h.requireContents()
	h.tally.kills++
}

// requireContents: the database holds exactly the model's records, value
// for value, and every assigned ID the model does not hold is gone.
func (h *harness) requireContents() {
	h.t.Helper()
	for _, id := range h.ids {
		got, err := h.db.Get(id)
		want, live := h.m.seqs[id]
		switch {
		case live && err != nil:
			h.t.Fatalf("Get(%d): %v, want %v", id, err, want)
		case live && !slices.Equal(got, want):
			h.t.Fatalf("Get(%d) = %v, want %v", id, got, want)
		case !live && err == nil:
			h.t.Fatalf("Get(%d) = %v, want an error: the model removed it", id, got)
		}
	}
}

// step decodes and runs one operation, then checks the database against the
// model.
func (h *harness) step() {
	h.t.Helper()
	write := true
	switch op := h.next() % 12; op {
	case 0, 1:
		batch := [][]float64{h.values()}
		for n := h.next() % 4; op == 1 && n > 0; n-- {
			batch = append(batch, h.values())
		}
		var ids []twsim.ID
		var err error
		if op == 0 {
			var id twsim.ID
			id, err = h.db.Add(batch[0])
			ids = []twsim.ID{id}
		} else {
			ids, err = h.db.AddBatch(batch)
		}
		if err != nil {
			h.t.Fatal(err)
		}
		h.m.add(ids, batch)
		h.ids = append(h.ids, ids...)
	case 2, 3:
		// A live ID, or (op 3) one removed before or never assigned.
		var id twsim.ID
		if live := h.live(); op == 2 && len(live) > 0 {
			id = live[h.next()%len(live)]
		} else if len(h.ids) > 0 && h.next()%2 == 0 {
			id = h.ids[h.next()%len(h.ids)]
		} else {
			id = twsim.ID(len(h.ids) + 1000 + h.next()%4)
		}
		got, err := h.db.Remove(id)
		if err != nil {
			h.t.Fatal(err)
		}
		if want := h.m.remove(id); got != want {
			h.t.Fatalf("Remove(%d) = %v, the model says %v", id, got, want)
		}
		if got {
			h.tally.removed++
		}
	case 4, 5, 6, 7, 11:
		// A range or k-NN query, or (op 11) the last one asked again, which
		// the result cache may answer.
		if op != 11 || h.last.q == nil {
			h.last.knn, h.last.q = op >= 6, h.query()
			h.last.eps = []float64{0, 0.25, 1, math.Inf(1)}[h.next()%4]
			h.last.k = 1 + h.next()%(len(h.m.seqs)+3)
		}
		var r *twsim.Result
		if h.last.knn {
			r = requireModelNearestK(h.t, h.db, h.m, h.last.q, h.last.k, h.cfg.band)
		} else {
			r = requireModelSearch(h.t, h.db, h.m, h.last.q, h.last.eps, h.cfg.band)
		}
		h.tally.matches += len(r.Matches)
		if r.CacheHit {
			h.tally.cacheHits++
		}
		write = false
	case 8:
		if err := h.db.Flush(); err != nil {
			h.t.Fatal(err)
		}
	case 9:
		if h.cfg.storage != "mem" {
			h.reopen()
		}
	case 10:
		switch h.cfg.storage {
		case "wal":
			h.kill()
		case "file":
			h.reopen()
		}
	}
	if n := h.db.Len(); n != len(h.m.seqs) {
		h.t.Fatalf("Len = %d, the model holds %d", n, len(h.m.seqs))
	}
	if write {
		if err := h.db.Verify(); err != nil {
			h.t.Fatalf("Verify: %v", err)
		}
	}
}

// runModelOps runs the op list data (at most 500 operations) against a new
// database of the given configuration and the model.
func runModelOps(t *testing.T, cfg harnessConfig, data []byte) *harness {
	h := &harness{t: t, cfg: cfg, m: newModel(twsim.BaseLInf), data: data}
	if cfg.storage != "mem" {
		h.dir = filepath.Join(t.TempDir(), "db")
	}
	h.open(true)
	defer func() { h.db.Close() }()
	for ; h.tally.ops < 500 && len(h.data) > 0; h.tally.ops++ {
		h.step()
	}
	return h
}

// TestModelHarness runs a seeded op list of adds, batch adds, removes of
// live and dead IDs, range queries at ε 0, 0.25, 1 and +Inf, k-NN queries
// with k from 1 to past the live count, flushes, close-and-reopens and (WAL
// on) kill-and-reopens against every lattice point — in memory, on disk
// with the WAL off and on; band 0 and 3; result cache off and 1 MiB — and
// requires every answer to be the model's, bit for bit, after every step.
func TestModelHarness(t *testing.T) {
	for _, storage := range []string{"mem", "file", "wal"} {
		for _, band := range []int{0, 3} {
			for _, cacheBytes := range []int64{0, 1 << 20} {
				cfg := harnessConfig{storage: storage, band: band, cacheBytes: cacheBytes}
				t.Run(cfg.String(), func(t *testing.T) {
					data := make([]byte, 8192)
					rand.New(rand.NewSource(int64(len(storage)*10 + band + int(cacheBytes>>20)))).Read(data)
					n := runModelOps(t, cfg, data).tally
					if n.ops < 500 || n.removed == 0 || n.matches == 0 ||
						cacheBytes > 0 && n.cacheHits == 0 || storage != "mem" && n.reopens == 0 || storage == "wal" && n.kills == 0 {
						t.Fatalf("the op list left part of the lattice point unexercised: %+v", n)
					}
				})
			}
		}
	}
}

// FuzzModelMatchesDB decodes a lattice point (storage, band, cache) from
// the first byte and an op list from the rest, and holds the database
// to the model at every step.
func FuzzModelMatchesDB(f *testing.F) {
	// In memory, L∞, unbanded, cache off: add [1]; a batch of [1] and [2];
	// a range query at ε 0 on record 0's values (records 0 and 1 match);
	// a 2-NN query on record 2's values; remove record 2; the 2-NN again.
	f.Add([]byte{0, 0, 0, 4, 0, 1, 0, 4, 1, 0, 8, 4, 1, 0, 0, 0, 6, 1, 2, 0, 1, 2, 2, 11})
	for seed := int64(0); seed < 12; seed++ {
		b := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(b)
		b[0] = byte(seed)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := int(data[0])
		cfg := harnessConfig{
			storage:    []string{"mem", "file", "wal"}[c%3],
			band:       []int{0, 3}[c/3%2],
			cacheBytes: []int64{0, 1 << 20}[c/6%2],
		}
		runModelOps(t, cfg, data[1:])
	})
}
