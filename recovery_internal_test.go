package twsim

// Internal (same-package) fault-injection tests for the crash-consistent
// write path: Add/AddAll must be atomic under injected index storage
// faults, and Open, which derives the index from the heap, must serve a
// database whose previous writer was interrupted between the heap append
// and the index insert as if nothing had happened.

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pagefile"
	"repro/internal/seq"
	"repro/internal/seqdb"
)

// faultPageSize keeps index nodes small (capacity 7 at dim 4) so inserts
// split — and therefore hit the backend — often enough for injected faults
// to fire. With the default 1 KB pages and a pool-resident tree, an insert
// without a split performs no backend I/O at all.
const faultPageSize = 512

// newFaultIndexDB builds an in-memory database whose feature index sits on
// a fault-injectable backend (the heap stays healthy, mirroring the
// "index page write fails" scenario the write path must survive).
func newFaultIndexDB(t *testing.T) (*DB, *pagefile.FaultBackend) {
	t.Helper()
	store, err := seqdb.NewMem(seqdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var fb *pagefile.FaultBackend
	index, err := core.NewFeatureIndex(core.IndexOptions{
		PageSize: faultPageSize,
		WrapBackend: func(b pagefile.Backend) pagefile.Backend {
			fb = pagefile.NewFaultBackend(b, -1)
			return fb
		},
	})
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	db := &DB{store: store, index: index, opts: Options{PageSize: faultPageSize}}
	t.Cleanup(func() { db.Close() })
	return db, fb
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
	oracle := &core.NaiveScan{DB: db.store, Base: db.base}
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

// Add must either fully succeed or leave store and index in agreement, at
// every injection point. lead = number of backend operations an insert is
// allowed before the fault fires (lead > 0 exercises mid-split and
// root-grow failure windows).
func TestAddAtomicUnderIndexFaults(t *testing.T) {
	for _, lead := range []int{0, 1, 2} {
		rng := rand.New(rand.NewSource(int64(100 + lead)))
		db, fb := newFaultIndexDB(t)
		for i := 0; i < 30; i++ {
			if _, err := db.Add(randSeq(rng)); err != nil {
				t.Fatal(err)
			}
		}
		failures := 0
		for i := 0; i < 60; i++ {
			fb.Arm(lead)
			_, err := db.Add(randSeq(rng))
			fb.Disarm()
			if err != nil {
				failures++
			}
			if s, n := db.store.Len(), db.index.Len(); s != n {
				t.Fatalf("lead %d, insert %d: store holds %d, index holds %d", lead, i, s, n)
			}
		}
		if failures == 0 {
			if lead == 0 {
				t.Fatalf("lead 0: no injected fault fired across 60 inserts")
			}
			continue // deeper failure windows need not occur on this layout
		}
		t.Logf("lead %d: %d of 60 inserts failed and rolled back", lead, failures)
		// A partially applied insert may have damaged the index structure;
		// Repair must restore exact search behavior.
		if _, err := db.Repair(); err != nil {
			t.Fatalf("lead %d: Repair: %v", lead, err)
		}
		if err := db.Verify(); err != nil {
			t.Fatalf("lead %d: Verify after repair: %v", lead, err)
		}
		q := randSeq(rng)
		assertOracleEqual(t, db, q, 3)
		assertOracleEqual(t, db, q, 10)
	}
}

// AddAll on a non-empty database (incremental path) must be all-or-nothing.
func TestAddAllAllOrNothingIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	failures := 0
	for n := 0; n < 25; n++ {
		db, fb := newFaultIndexDB(t)
		if _, err := db.Add([]float64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		batch := make([][]float64, 20)
		for i := range batch {
			batch[i] = randSeq(rng)
		}
		fb.Arm(n)
		_, err := db.AddAll(batch)
		fb.Disarm()
		wantLen := 21
		if err != nil {
			failures++
			wantLen = 1 // the whole batch must have been rolled back
		}
		if got := db.store.Len(); got != wantLen {
			t.Fatalf("injection %d: store holds %d sequences, want %d (err=%v)", n, got, wantLen, err)
		}
		if s, i := db.store.Len(), db.index.Len(); s != i {
			t.Fatalf("injection %d: store holds %d, index holds %d", n, s, i)
		}
		// The database must remain usable: a clean retry must succeed.
		if err != nil {
			if _, err := db.AddAll(batch); err != nil {
				t.Fatalf("injection %d: retry after rollback: %v", n, err)
			}
			if _, err := db.Repair(); err != nil {
				t.Fatalf("injection %d: repair: %v", n, err)
			}
			if err := db.Verify(); err != nil {
				t.Fatalf("injection %d: Verify: %v", n, err)
			}
			assertOracleEqual(t, db, batch[3], 2)
		}
	}
	if failures == 0 {
		t.Fatal("no injected fault fired; widen the injection schedule")
	}
}

// AddAll on an empty database (STR bulk-load path) must leave the database
// empty on failure, and a clean retry must succeed.
func TestAddAllAllOrNothingBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	failures := 0
	for n := 0; n < 25; n++ {
		db, fb := newFaultIndexDB(t)
		batch := make([][]float64, 60)
		for i := range batch {
			batch[i] = randSeq(rng)
		}
		fb.Arm(n)
		_, err := db.AddAll(batch)
		fb.Disarm()
		if err != nil {
			failures++
			if s, i := db.store.Len(), db.index.Len(); s != 0 || i != 0 {
				t.Fatalf("injection %d: after failed bulk AddAll store=%d index=%d, want 0/0", n, s, i)
			}
			if _, err := db.AddAll(batch); err != nil {
				t.Fatalf("injection %d: retry after abort: %v", n, err)
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
	if _, err := db.index.Delete(ids[4], seq.Sequence(stored[4])); err != nil {
		t.Fatal(err)
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

// After a rollback the freed ID and heap space must be reused by the next
// append, so a transient fault costs nothing permanently.
func TestAddRollbackReusesIDAndSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db, fb := newFaultIndexDB(t)
	fb.Arm(0) // the next insert that touches the backend fails
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
				t.Fatalf("heap grew from %d to %d across a rolled-back Add", bytesBefore, db.DataBytes())
			}
			if db.Len() != lenBefore {
				t.Fatalf("Len changed from %d to %d across a rolled-back Add", lenBefore, db.Len())
			}
			break
		}
	}
	fb.Disarm()
	if failedAt < 0 {
		t.Fatal("no Add touched the index backend within 100 inserts")
	}
	id, err := db.Add(failedSeq)
	if err != nil {
		t.Fatalf("retry after rollback: %v", err)
	}
	if int(id) != failedAt {
		t.Fatalf("retry got id %d, want rolled-back id %d reused", id, failedAt)
	}
	if _, err := db.Repair(); err != nil {
		t.Fatal(err)
	}
	if err := db.Verify(); err != nil {
		t.Fatal(err)
	}
}

// damagedIndex is an index whose structure check fails, which is what makes
// a Repair replace it instead of patching it in place.
type damagedIndex struct{ core.Index }

func (damagedIndex) CheckInvariants() error { return os.ErrInvalid }

// TestSearcherSeesRepairedIndex: a Searcher handed out before a Repair that
// replaced the index answers from the replacement — it used to keep
// searching the closed index it captured at construction — and from the
// database's envelopes: after the Repair and one more Add its answer is
// db.Search's.
func TestSearcherSeesRepairedIndex(t *testing.T) {
	db, data := mustCreatePopulated(t, t.TempDir(), 30)
	defer db.Close()
	s := db.TWSimSearcher()

	db.index = damagedIndex{db.index}
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
