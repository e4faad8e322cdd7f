package twsim

// Internal (same-package) fault-injection tests for the crash-consistent
// write path: Add/AddAll must be atomic under injected heap storage faults
// (the one write in the path that can fail), and Open, which derives the
// index from the heap, must serve a database whose previous writer was
// interrupted between the heap append and the index insert as if nothing
// had happened.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pagefile"
	"repro/internal/seq"
	"repro/internal/seqdb"
	"repro/internal/wal"
)

// faultPageSize and faultPoolPages keep the heap's pages small and its
// pool tiny, so an append allocates a page and evicts a dirty one — and
// therefore hits the backend — often enough for injected faults to fire.
const (
	faultPageSize  = 128
	faultPoolPages = 4
)

// newFaultHeapDB builds an in-memory database whose heap sits on a
// fault-injectable backend, with the flat index and the envelope store
// every database has: the heap is the only part of a write that can fail.
func newFaultHeapDB(t *testing.T) (*DB, *pagefile.FaultBackend) {
	t.Helper()
	var fb *pagefile.FaultBackend
	store, err := seqdb.NewMem(seqdb.Options{
		PageSize:  faultPageSize,
		PoolPages: faultPoolPages,
		WrapBackend: func(b pagefile.Backend) pagefile.Backend {
			fb = pagefile.NewFaultBackend(b, -1)
			return fb
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := newDB(store, "", Options{})
	t.Cleanup(func() { db.Close() })
	return db, fb
}

// writeState is everything a write can move: the heap's counters, the
// index entries and the envelope count.
type writeState struct {
	records, live, envs int
	bytes               int64
	entries             string
}

func stateOf(t *testing.T, db *DB) writeState {
	t.Helper()
	entries, err := db.index.Entries()
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	return writeState{records: db.NumRecords(), live: db.Len(), envs: db.envs.Len(),
		bytes: db.DataBytes(), entries: fmt.Sprint(entries)}
}

func randSeq(rng *rand.Rand) []float64 {
	s := make([]float64, 4+rng.Intn(12))
	for i := range s {
		s[i] = float64(rng.Intn(50))
	}
	return s
}

// assertOracleEqual checks that the indexed search returns exactly what a
// full sequential scan returns (the no-false-dismissal acceptance check).
func assertOracleEqual(t *testing.T, db *DB, query []float64, epsilon float64) {
	t.Helper()
	res, err := db.Search(query, epsilon)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	oracle := &core.NaiveScan{DB: db.store, Base: seq.LInf}
	truth, err := oracle.Search(seq.Sequence(query), epsilon)
	if err != nil {
		t.Fatalf("NaiveScan: %v", err)
	}
	if len(res.Matches) != len(truth.Matches) {
		t.Fatalf("Search returned %d matches, oracle %d (eps=%g)",
			len(res.Matches), len(truth.Matches), epsilon)
	}
	for i := range res.Matches {
		if res.Matches[i].ID != truth.Matches[i].ID ||
			math.Abs(res.Matches[i].Dist-truth.Matches[i].Dist) > 1e-9 {
			t.Fatalf("match %d: got %+v, oracle %+v", i, res.Matches[i], truth.Matches[i])
		}
	}
}

// A failed Add leaves the database exactly as it was — heap counters,
// index entries, envelopes — at every injection point, so Verify passes
// without a Repair. lead = number of backend operations an Add is allowed
// before the fault fires (lead > 0 fails it after a page was allocated or
// a dirty one evicted). The sequences span up to four pages, so every lead
// fires.
func TestAddAtomicUnderHeapFaults(t *testing.T) {
	for _, lead := range []int{0, 1, 2} {
		rng := rand.New(rand.NewSource(int64(100 + lead)))
		spanning := func() []float64 {
			s := make([]float64, 4+rng.Intn(60))
			for i := range s {
				s[i] = float64(rng.Intn(50))
			}
			return s
		}
		db, fb := newFaultHeapDB(t)
		for i := 0; i < 30; i++ {
			if _, err := db.Add(spanning()); err != nil {
				t.Fatal(err)
			}
		}
		failures := 0
		for i := 0; i < 60; i++ {
			before := stateOf(t, db)
			fb.Arm(lead)
			_, err := db.Add(spanning())
			fb.Disarm()
			if err == nil {
				continue
			}
			failures++
			if after := stateOf(t, db); after != before {
				t.Fatalf("lead %d, add %d failed (%v) and moved the database:\n before %+v\n after  %+v", lead, i, err, before, after)
			}
		}
		if failures == 0 {
			t.Fatalf("lead %d: no injected fault fired across 60 adds", lead)
		}
		t.Logf("lead %d: %d of 60 adds failed and left nothing behind", lead, failures)
		if err := db.Verify(); err != nil {
			t.Fatalf("lead %d: Verify: %v", lead, err)
		}
		q := spanning()
		assertOracleEqual(t, db, q, 3)
		assertOracleEqual(t, db, q, 10)
	}
}

// AddAll on a non-empty database (the batch goes into the index's delta)
// must be all-or-nothing under heap faults.
func TestAddAllAllOrNothingIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	failures := 0
	for n := 0; n < 25; n++ {
		db, fb := newFaultHeapDB(t)
		if _, err := db.Add([]float64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		batch := make([][]float64, 20)
		for i := range batch {
			batch[i] = randSeq(rng)
		}
		before := stateOf(t, db)
		fb.Arm(n)
		_, err := db.AddAll(batch)
		fb.Disarm()
		if err == nil {
			if got := db.Len(); got != 21 {
				t.Fatalf("injection %d: store holds %d sequences, want 21", n, got)
			}
		} else {
			failures++
			if after := stateOf(t, db); after != before {
				t.Fatalf("injection %d: a failed AddAll (%v) moved the database:\n before %+v\n after  %+v", n, err, before, after)
			}
			// The database must remain usable: a clean retry must succeed.
			if _, err := db.AddAll(batch); err != nil {
				t.Fatalf("injection %d: retry: %v", n, err)
			}
		}
		if err := db.Verify(); err != nil {
			t.Fatalf("injection %d: Verify: %v", n, err)
		}
		assertOracleEqual(t, db, batch[3], 2)
	}
	if failures == 0 {
		t.Fatal("no injected fault fired; widen the injection schedule")
	}
}

// AddAll on an empty database (the batch is packed as the index's slab)
// must leave the database empty on a heap fault, and a clean retry must
// succeed.
func TestAddAllAllOrNothingBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	failures := 0
	for n := 0; n < 25; n++ {
		db, fb := newFaultHeapDB(t)
		batch := make([][]float64, 60)
		for i := range batch {
			batch[i] = randSeq(rng)
		}
		fb.Arm(n)
		_, err := db.AddAll(batch)
		fb.Disarm()
		if err != nil {
			failures++
			if s := stateOf(t, db); s != (writeState{entries: "[]"}) {
				t.Fatalf("injection %d: after a failed bulk AddAll (%v) the database holds %+v, want nothing", n, err, s)
			}
			if _, err := db.AddAll(batch); err != nil {
				t.Fatalf("injection %d: retry: %v", n, err)
			}
		}
		if s, i := db.store.Len(), db.index.Len(); s != len(batch) || i != len(batch) {
			t.Fatalf("injection %d: store=%d index=%d, want %d", n, s, i, len(batch))
		}
		if err := db.Verify(); err != nil {
			t.Fatalf("injection %d: Verify: %v", n, err)
		}
		assertOracleEqual(t, db, batch[0], 4)
	}
	if failures == 0 {
		t.Fatal("no injected fault fired; widen the injection schedule")
	}
}

// mustCreatePopulated creates an on-disk database with count sequences.
func mustCreatePopulated(t *testing.T, dir string, count int) (*DB, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	db, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]float64, count)
	for i := range data {
		data[i] = randSeq(rng)
	}
	if _, err := db.AddAll(data); err != nil {
		t.Fatal(err)
	}
	return db, data
}

// A crash between the heap append and the index insert leaves a heap
// record the index never saw; Open derives the index from the heap, so the
// record is indexed like any other and there is nothing to repair.
func TestOpenReindexesOrphanedHeapRecord(t *testing.T) {
	dir := t.TempDir()
	db, data := mustCreatePopulated(t, dir, 20)
	// Simulate the crash: append to the heap, never insert into the index,
	// then shut down (the heap directory is persisted on Close).
	orphan := []float64{40, 41, 39, 42, 38}
	if _, err := db.store.Append(seq.Sequence(orphan)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after simulated crash: %v", err)
	}
	defer db2.Close()
	if rs := db2.LastRepair(); rs.Repaired() {
		t.Fatalf("LastRepair = %+v after Open, want the zero value", rs)
	}
	if err := db2.Verify(); err != nil {
		t.Fatalf("Verify after Open: %v", err)
	}
	if err := db2.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants after Open: %v", err)
	}
	// The record must be findable — no false dismissal.
	res, err := db2.Search(orphan, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("the record the index never saw is not found by Search")
	}
	assertOracleEqual(t, db2, orphan, 0.5)
	assertOracleEqual(t, db2, data[5], 3)

	// A clean reopen must report nothing to repair.
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if rs := db3.LastRepair(); rs.Repaired() {
		t.Fatalf("second open repaired again: %+v", rs)
	}
}

// An index entry whose heap record never became durable is gone after
// Open: the index is derived from the heap alone.
func TestOpenRemovesDanglingIndexEntry(t *testing.T) {
	dir := t.TempDir()
	db, data := mustCreatePopulated(t, dir, 12)
	// Simulate the inverse crash: an index entry pointing at a record the
	// heap never durably wrote.
	if err := db.index.Insert(seq.ID(500), seq.Sequence{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with dangling entry: %v", err)
	}
	defer db2.Close()
	if db2.index.Len() != db2.store.Len() || db2.index.Len() != len(data) {
		t.Fatalf("index holds %d entries, heap %d live records, want %d each", db2.index.Len(), db2.store.Len(), len(data))
	}
	if err := db2.Verify(); err != nil {
		t.Fatalf("Verify after Open: %v", err)
	}
	assertOracleEqual(t, db2, data[0], 2)
}

// Balanced divergence (one record missing from the index plus one entry
// with no record) keeps the entry counts equal; Verify finds it and the
// explicit Repair, which derives the index again from the heap, fixes it.
func TestRepairFixesBalancedDivergence(t *testing.T) {
	db, err := OpenMem(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ids := make([]ID, 0, 10)
	rng := rand.New(rand.NewSource(3))
	var stored [][]float64
	for i := 0; i < 10; i++ {
		v := randSeq(rng)
		id, err := db.Add(v)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		stored = append(stored, v)
	}
	// Orphan: drop a live record's index entry. Dangling: add a phantom.
	if !db.index.Drop(ids[4], seq.MustFeature(stored[4])) {
		t.Fatal("test setup: the entry to orphan is not indexed")
	}
	if err := db.index.Insert(seq.ID(700), seq.Sequence{1, 2}); err != nil {
		t.Fatal(err)
	}
	if db.store.Len() != db.index.Len() {
		t.Fatal("test setup: counts should balance")
	}
	if err := db.Verify(); err == nil {
		t.Fatal("Verify passed on diverged database")
	}
	rs, err := db.Repair()
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if !rs.Rebuilt || rs.LiveSequences != 10 || db.LastRepair() != rs {
		t.Fatalf("Repair = %+v (LastRepair %+v), want a rebuild from 10 live sequences", rs, db.LastRepair())
	}
	if err := db.Verify(); err != nil {
		t.Fatalf("Verify after Repair: %v", err)
	}
	assertOracleEqual(t, db, stored[4], 1)
}

// An index file in the directory — a garbage one, or none — changes
// nothing: Open never reads feature.flat, removes it, and derives the index
// from the heap, which is the source of truth.
func TestOpenRebuildsUnopenableIndex(t *testing.T) {
	for name, corrupt := range map[string]func(t *testing.T, path string){
		"corrupt": func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not a snapshot file at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"missing": func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			db, data := mustCreatePopulated(t, dir, 15)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, exportFileName)
			corrupt(t, path)

			db2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("Open with %s index: %v", name, err)
			}
			defer db2.Close()
			if rs := db2.LastRepair(); rs.Repaired() || len(db2.OpenDiagnostics()) != 0 {
				t.Fatalf("LastRepair = %+v, diagnostics %q: want neither", rs, db2.OpenDiagnostics())
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("%s survived Open (stat: %v)", exportFileName, err)
			}
			if db2.Len() != 15 {
				t.Fatalf("Len = %d, want 15", db2.Len())
			}
			if err := db2.Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			assertOracleEqual(t, db2, data[7], 3)
		})
	}
}

// A kill -9 between a flush's CreateTemp and its rename leaves the temp file
// in the database directory, and no later write reuses its name. Open must
// remove such leftovers, say so, and leave everything else alone.
func TestOpenRemovesStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	db, data := mustCreatePopulated(t, dir, 15)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	stale := []string{"feature.flat.tmp-2750846712", "dir.bin.tmp-17"}
	keep := []string{"notes.tmp-draft", "feature.flat.tmp-"} // not the temp naming: no decimal suffix
	for _, name := range append(append([]string(nil), stale...), keep...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half a snapshot"), 0o600); err != nil {
			t.Fatal(err)
		}
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	notes := strings.Join(db2.OpenDiagnostics(), "\n")
	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("stale temp %s survived Open (stat: %v)", name, err)
		}
		if !strings.Contains(notes, "stale temp file "+name+" removed-on-open") {
			t.Errorf("no diagnostics line for %s in:\n%s", name, notes)
		}
	}
	for _, name := range keep {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s is not a flush temp and must be left alone: %v", name, err)
		}
	}
	if db2.LastRepair().Repaired() {
		t.Fatalf("removing temp files must not look like a repair: %+v", db2.LastRepair())
	}
	if db2.Len() != 15 {
		t.Fatalf("Len = %d after cleanup, want 15", db2.Len())
	}
	if err := db2.Verify(); err != nil {
		t.Fatal(err)
	}
	assertOracleEqual(t, db2, data[3], 3)
}

// Searches must skip dangling index entries instead of failing: dropping a
// candidate with no heap record cannot cause a false dismissal, and it
// keeps reads available until the next repair.
func TestSearchSkipsDanglingEntries(t *testing.T) {
	db, err := OpenMem(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Add([]float64{5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	// Phantom entry whose feature sits right where the query will look.
	if err := db.index.Insert(seq.ID(900), seq.Sequence{5, 7, 6}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Search([]float64{5, 6, 7}, 1)
	if err != nil {
		t.Fatalf("Search with dangling candidate: %v", err)
	}
	if len(res.Matches) != 1 || res.Matches[0].ID != 0 {
		t.Fatalf("matches = %+v, want exactly sequence 0", res.Matches)
	}
	matches, err := db.NearestK([]float64{5, 6, 7}, 3)
	if err != nil {
		t.Fatalf("NearestK with dangling candidate: %v", err)
	}
	if len(matches) != 1 || matches[0].ID != 0 {
		t.Fatalf("NearestK = %+v, want exactly sequence 0", matches)
	}
}

// A failed Add frees nothing because it took nothing: the next append
// gets the same ID and heap space, so a transient fault costs nothing
// permanently.
func TestAddRollbackReusesIDAndSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db, fb := newFaultHeapDB(t)
	fb.Arm(0) // the next Add that touches the backend fails
	failedAt := -1
	var failedSeq []float64
	for i := 0; i < 100; i++ {
		v := randSeq(rng)
		bytesBefore := db.DataBytes()
		lenBefore := db.Len()
		if _, err := db.Add(v); err != nil {
			failedAt = lenBefore
			failedSeq = v
			if db.DataBytes() != bytesBefore {
				t.Fatalf("heap grew from %d to %d across a failed Add", bytesBefore, db.DataBytes())
			}
			if db.Len() != lenBefore {
				t.Fatalf("Len changed from %d to %d across a failed Add", lenBefore, db.Len())
			}
			break
		}
	}
	fb.Disarm()
	if failedAt < 0 {
		t.Fatal("no Add touched the heap backend within 100 adds")
	}
	id, err := db.Add(failedSeq)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if int(id) != failedAt {
		t.Fatalf("retry got id %d, want the failed Add's id %d", id, failedAt)
	}
	if err := db.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSearcherSeesRepairedIndex: a Searcher handed out before a Repair,
// which always replaces the index with one derived from the heap, answers
// from the replacement — it used to keep searching the closed index it
// captured at construction — and from the database's envelopes: after the
// Repair and one more Add its answer is db.Search's.
func TestSearcherSeesRepairedIndex(t *testing.T) {
	db, data := mustCreatePopulated(t, t.TempDir(), 30)
	defer db.Close()
	s := db.TWSimSearcher()

	rs, err := db.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Rebuilt {
		t.Fatalf("Repair = %+v, want the index replaced", rs)
	}
	added := append([]float64(nil), data[3]...)
	added[0] += 0.01
	if _, err := db.Add(added); err != nil {
		t.Fatal(err)
	}

	const epsilon = 2.5
	want, err := db.Search(data[3], epsilon)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Matches) < 2 {
		t.Fatalf("db.Search found %d matches; the query should match itself and the added twin", len(want.Matches))
	}
	got, err := s.Search(data[3], epsilon)
	if err != nil {
		t.Fatalf("%s after Repair: %v", s.Name(), err)
	}
	if len(got.Matches) != len(want.Matches) {
		t.Fatalf("%s after Repair: %d matches, db.Search %d", s.Name(), len(got.Matches), len(want.Matches))
	}
	for i := range got.Matches {
		if got.Matches[i] != want.Matches[i] {
			t.Fatalf("%s after Repair: match %d = %+v, db.Search %+v", s.Name(), i, got.Matches[i], want.Matches[i])
		}
	}
}

// TestOpenRefusesDamagedHeapDirectory: the heap is the one file set Open
// cannot rebuild, so a dir.bin it cannot trust is an error that names the
// damage — not a database that opens and dies on the first fetch.
func TestOpenRefusesDamagedHeapDirectory(t *testing.T) {
	dir := t.TempDir()
	db, _ := mustCreatePopulated(t, dir, 15)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "dir.bin")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[24+8*4+5] = 1 // record 4's offset becomes 1<<40 and change
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{})
	if err == nil {
		re.Close()
		t.Fatal("Open accepted a directory whose offsets run past the data file")
	}
	if !strings.Contains(err.Error(), "sequence heap") || !strings.Contains(err.Error(), "directory damaged") {
		t.Fatalf("Open error does not say what is wrong: %v", err)
	}
}

// TestUndoAppendsAfterFailedWALAppend: a write the heap, the index and the
// envelopes took but the log refused (here a closed log: Begin returns
// wal.ErrClosed) is taken back whole — the heap counters, the index and
// the envelopes are as before, Verify passes, and no search sees it.
func TestUndoAppendsAfterFailedWALAppend(t *testing.T) {
	db, err := Create(t.TempDir(), Options{WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(17))
	data := make([][]float64, 20)
	for i := range data {
		data[i] = randSeq(rng)
	}
	if _, err := db.AddAll(data); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Remove(4); err != nil {
		t.Fatal(err)
	}
	before := stateOf(t, db)
	if err := db.wal.Close(); err != nil {
		t.Fatal(err)
	}
	refused := [][]float64{{70, 71, 72}, {80, 81}, {90}}
	check := func(what string, err error) {
		t.Helper()
		if err == nil || !errors.Is(err, wal.ErrClosed) || !strings.Contains(err.Error(), "rolled back") {
			t.Fatalf("%s with the log closed: err = %v, want a rolled-back wal.ErrClosed", what, err)
		}
		if after := stateOf(t, db); after != before {
			t.Fatalf("%s was not taken back:\n before %+v\n after  %+v", what, before, after)
		}
	}
	_, err = db.Add(refused[0])
	check("Add", err)
	_, err = db.AddAll(refused)
	check("AddAll", err)
	if err := db.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	for _, q := range refused {
		res, err := db.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 0 {
			t.Fatalf("Search(%v, 0) sees %+v, a refused write", q, res.Matches)
		}
		assertOracleEqual(t, db, q, 5)
	}
}
