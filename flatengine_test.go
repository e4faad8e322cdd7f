package twsim_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	twsim "repro"
	"repro/internal/core"
	"repro/internal/seq"
)

// openBackend opens an in-memory database, or three shards of one.
func openBackend(t *testing.T, opts twsim.Options, sharded bool) twsim.Backend {
	t.Helper()
	var b twsim.Backend
	var err error
	if sharded {
		b, err = twsim.OpenMemSharded(twsim.ShardedOptions{Options: opts, Shards: 3})
	} else {
		b, err = twsim.OpenMem(opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// matchesEqual reports whether a and b hold the same IDs in the same order
// at the same distance bits.
func matchesEqual(a, b []twsim.Match) bool { return diffMatches(a, b) == "" }

// checkIdentical runs Search and NearestK on b and demands the model's
// answers bit for bit (same IDs, same float64 distances, same order), the
// conservation law on both query kinds, and the model's count of range
// candidates. Whether the k-NN walk does the same work over the R-tree and
// the flat slab is an index-level question: internal/core's
// TestFlatEngineOracle asks it of the two engines, and TestCountFence pins
// the flat engine's counts.
func checkIdentical(t *testing.T, m *model, b oracleBackend, rng *rand.Rand, data [][]float64, band int) {
	t.Helper()
	for trial := 0; trial < 6; trial++ {
		q := append([]float64(nil), data[rng.Intn(len(data))]...)
		for i := range q {
			q[i] += (rng.Float64() - 0.5) * 0.1
		}
		eps := 0.1 + rng.Float64()*0.7
		requireModelSearch(t, b, m, q, eps, band)
		requireModelNearestK(t, b, m, q, 1+rng.Intn(8), band)
	}
}

// TestFlatEngineOracle: a database must answer Search and NearestK
// bit-identically to the brute-force model — on L∞, and TW-Sim-Search over
// the flat index on the additive bases (openOracle) — across both backends
// (DB and ShardedDB, or one and three index partitions), the worker counts
// a caller may still pass (Options.RefineWorkers is ignored), and unbanded
// plus banded queries —
// through a lifecycle of bulk load and interleaved inserts and removes, so
// queries run against the packed snapshot alone and against snapshot +
// delta adds + tombstones. (TestFlatEngineMergesFire carries the
// comparison across a merge; internal/core's TestFlatEngineOracle compares
// the flat index with the paper's R-tree index against index.)
func TestFlatEngineOracle(t *testing.T) {
	bases := map[string]twsim.Base{"linf": twsim.BaseLInf, "l1": twsim.BaseL1, "l2sq": twsim.BaseL2Sq}
	data := randomWalks(4243, 130, 12, 40)
	extra := randomWalks(4244, 60, 12, 40)
	for name, base := range bases {
		for _, sharded := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				for _, band := range []int{0, 8} {
					label := fmt.Sprintf("%s/%s/workers%d/band%d",
						name, map[bool]string{false: "db", true: "sharded"}[sharded], workers, band)
					t.Run(label, func(t *testing.T) {
						flat := openOracle(t, base, twsim.Options{RefineWorkers: workers, Band: band}, sharded)
						defer flat.Close()
						m := newModel(base)

						// Phase 1: bulk load (flat: STR-packed snapshot).
						ids, err := flat.AddBatch(data)
						if err != nil {
							t.Fatal(err)
						}
						m.add(ids, data)
						rng := rand.New(rand.NewSource(99))
						checkIdentical(t, m, flat, rng, data, band)

						// Phase 2: interleaved inserts and removes, all of
						// which stay in the delta.
						live := append([][]float64(nil), data...)
						fids, err := flat.AddBatch(extra)
						if err != nil {
							t.Fatal(err)
						}
						m.add(fids, extra)
						live = append(live, extra...)
						for i := 0; i < 25; i++ {
							id := fids[rng.Intn(len(extra))]
							got, err := flat.Remove(id)
							if err != nil {
								t.Fatal(err)
							}
							if want := m.remove(id); got != want {
								t.Fatalf("Remove(%d) = %v, the model says %v", id, got, want)
							}
						}
						checkIdentical(t, m, flat, rng, live, band)

						if got, want := flat.Len(), len(m.seqs); got != want {
							t.Fatalf("Len = %d, the model holds %d", got, want)
						}
						if err := flat.Verify(); err != nil {
							t.Fatalf("flat Verify: %v", err)
						}
					})
				}
			}
		}
	}
}

// TestFlatEngineMergesFire: single inserts past the delta threshold (4096
// entries) make a background merge swap in a new snapshot generation, and
// the database answers like the model before and after the swap.
func TestFlatEngineMergesFire(t *testing.T) {
	flat := openBackend(t, twsim.Options{RefineWorkers: 1}, false)
	defer flat.Close()
	m := newModel(twsim.BaseLInf)
	data := randomWalks(7, 4300, 8, 16)
	for _, s := range data {
		id, err := flat.Add(s)
		if err != nil {
			t.Fatal(err)
		}
		m.add([]twsim.ID{id}, [][]float64{s})
	}
	rng := rand.New(rand.NewSource(17))
	checkIdentical(t, m, flat, rng, data, 0)
	st := flat.IndexEngineStats()
	if st.Engine != "flat" {
		t.Fatalf("engine = %q, want flat", st.Engine)
	}
	// Merges run on a background goroutine; give a slow machine a moment.
	deadline := time.Now().Add(5 * time.Second)
	for st.Merges == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		st = flat.IndexEngineStats()
	}
	if st.Merges == 0 {
		t.Fatalf("no background merge fired after %d inserts", len(data))
	}
	if st.Generation == 0 {
		t.Fatal("snapshot generation still 0 after merges")
	}
	checkIdentical(t, m, flat, rng, data, 0)
}

// TestFlatEnginePersistence: an on-disk database round-trips through
// Close/Open with its index derived from the heap, and Open never reads an
// index file. A feature.flat (the image Close leaves for outside tools)
// with one stored point moved far away under a valid checksum — a walk
// over that slab would miss the record, a false dismissal — or with a
// flipped byte changes no answer: Open removes it unread.
func TestFlatEnginePersistence(t *testing.T) {
	dir := t.TempDir()
	flatDir := filepath.Join(dir, "flat")
	data := randomWalks(5150, 100, 12, 40)

	db, err := twsim.Create(flatDir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := db.AddAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(flatDir, "feature.flat")
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("index image not written on close: %v", err)
	}
	m := newModel(twsim.BaseLInf)
	m.addFrom(first, data)

	db, err = twsim.Open(flatDir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db.LastRepair().Repaired() || len(db.OpenDiagnostics()) != 0 {
		t.Fatalf("clean reopen repaired something: %+v %q", db.LastRepair(), db.OpenDiagnostics())
	}
	requireNoDerivedFiles(t, flatDir)
	rng := rand.New(rand.NewSource(11))
	checkIdentical(t, m, db, rng, data, 0)
	if err := db.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Move one stored point far away and re-seal the checksum.
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	const headerSize, nodeSize, itemSize = 32, 72, 36
	slab := raw[:len(raw)-4]
	item := slab[headerSize+int(binary.LittleEndian.Uint32(slab[12:]))*nodeSize+39*itemSize:]
	moved := twsim.ID(binary.LittleEndian.Uint32(item[32:]))
	binary.LittleEndian.PutUint64(item, math.Float64bits(1e6)) // its First
	if err := os.WriteFile(snapPath, binary.LittleEndian.AppendUint32(slab, crc32.ChecksumIEEE(slab)), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = twsim.Open(flatDir, twsim.Options{})
	if err != nil {
		t.Fatalf("open after moving a stored point: %v", err)
	}
	if db.LastRepair().Repaired() || len(db.OpenDiagnostics()) != 0 {
		t.Fatalf("open over a doctored image: %+v %q, want neither a repair nor a note", db.LastRepair(), db.OpenDiagnostics())
	}
	values, err := db.Get(moved)
	if err != nil {
		t.Fatal(err)
	}
	for name, search := range map[string]func([]float64, float64) (*twsim.Result, error){
		"Search": db.Search, "Naive-Scan": db.BaselineNaiveScan().Search,
	} {
		r, err := search(values, 0)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range r.Matches {
			found = found || m.ID == moved
		}
		if !found {
			t.Fatalf("%s(record %d's own values, 0) missed it", name, moved)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte of the image: the same.
	if raw, err = os.ReadFile(snapPath); err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = twsim.Open(flatDir, twsim.Options{})
	if err != nil {
		t.Fatalf("open after corruption: %v", err)
	}
	defer db.Close()
	if db.LastRepair().Repaired() || len(db.OpenDiagnostics()) != 0 {
		t.Fatalf("open over a corrupt image: %+v %q, want neither a repair nor a note", db.LastRepair(), db.OpenDiagnostics())
	}
	checkIdentical(t, m, db, rng, data, 0)
	if err := db.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestFlatEngineRebuildsEnvelopeSnapshot: a feature.flat written before the
// slab lost its per-item PAA envelope region (header flag bit 0 set, 260
// more bytes per item, checksum valid) is a layout nothing reads any more.
// Open removes it unread, derives the index, answers exactly as before, and
// the next Close leaves a current-layout image.
func TestFlatEngineRebuildsEnvelopeSnapshot(t *testing.T) {
	dir := t.TempDir()
	data := randomWalks(5151, 90, 12, 40)
	opts := twsim.Options{Band: 4}
	db, err := twsim.Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	first, err := db.AddAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	m := newModel(twsim.BaseLInf)
	m.addFrom(first, data)

	snapPath := filepath.Join(dir, "feature.flat")
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	current := append([]byte(nil), raw...)
	slab := raw[:len(raw)-4]
	slab[8] |= 1 // the retired flagEnvelopes
	nItems := int(binary.LittleEndian.Uint32(slab[16:]))
	slab = append(slab, make([]byte, nItems*(4+2*16*8))...)
	old := binary.LittleEndian.AppendUint32(slab, crc32.ChecksumIEEE(slab))
	if err := os.WriteFile(snapPath, old, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err = twsim.Open(dir, opts)
	if err != nil {
		t.Fatalf("open over an envelope-carrying snapshot: %v", err)
	}
	if db.LastRepair().Repaired() || len(db.OpenDiagnostics()) != 0 {
		t.Fatalf("open over an envelope-carrying snapshot: %+v %q, want neither a repair nor a note", db.LastRepair(), db.OpenDiagnostics())
	}
	requireNoDerivedFiles(t, dir)
	rng := rand.New(rand.NewSource(13))
	checkIdentical(t, m, db, rng, data, 4)
	if err := db.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(snapPath); err != nil || string(raw) != string(current) {
		t.Fatalf("the image after Close is not the current layout of the same index (err %v)", err)
	}
}

// TestFlatEngineSwitchFromGuttman: a directory last served by a version that
// kept the index as a paged R-tree (feature.rtree, no feature.flat, a
// version-1 envelope sidecar) must open: both files are removed unread, with
// one diagnostic line each, the flat index and the envelopes are derived
// from the heap (the source of truth), every answer is what it was, and the
// next open finds nothing to do.
func TestFlatEngineSwitchFromGuttman(t *testing.T) {
	dir := t.TempDir()
	data := randomWalks(61, 50, 10, 30)
	db, err := twsim.Create(dir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := db.AddAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	m := newModel(twsim.BaseLInf)
	m.addFrom(first, data)

	// Turn the directory into what the older version left behind.
	if err := os.Remove(filepath.Join(dir, "feature.flat")); err != nil {
		t.Fatal(err)
	}
	rtree, err := core.NewFeatureIndex(core.IndexOptions{OnDiskPath: filepath.Join(dir, "feature.rtree")})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]seq.ID, len(data))
	features := make([]seq.Feature, len(data))
	for i, s := range data {
		ids[i], features[i] = seq.ID(i), seq.MustFeature(s)
	}
	if err := rtree.BulkLoad(ids, features); err != nil {
		t.Fatal(err)
	}
	if err := rtree.Close(); err != nil {
		t.Fatal(err)
	}
	writeV1Sidecar(t, filepath.Join(dir, "envelopes.paa"), data)

	db, err = twsim.Open(dir, twsim.Options{})
	if err != nil {
		t.Fatalf("open a guttman directory: %v", err)
	}
	if got := db.IndexEngineStats().Engine; got != "flat" {
		t.Fatalf("engine = %q, want flat", got)
	}
	requireStrayNotes(t, db.OpenDiagnostics(), "feature.rtree", "envelopes.paa")
	requireNoDerivedFiles(t, dir)
	checkIdentical(t, m, db, rand.New(rand.NewSource(19)), data, 0)
	if err := db.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = twsim.Open(dir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.LastRepair().Repaired() || len(db.OpenDiagnostics()) != 0 {
		t.Fatalf("the converted directory needed another repair: %+v %q", db.LastRepair(), db.OpenDiagnostics())
	}
	requireNoDerivedFiles(t, dir)
}

// requireNoDerivedFiles: an open database's directory holds no index or
// envelope file — neither the image of the last Close nor an older
// version's feature.rtree or envelopes.paa.
func requireNoDerivedFiles(t *testing.T, dir string) {
	t.Helper()
	for _, name := range []string{"feature.flat", "feature.rtree", "envelopes.paa"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s present in an open database's directory (stat: %v)", name, err)
		}
	}
}

// requireStrayNotes: the open diagnostics are one removal line for each
// named file, and nothing else.
func requireStrayNotes(t *testing.T, notes []string, names ...string) {
	t.Helper()
	if len(notes) != len(names) {
		t.Fatalf("open diagnostics %q, want one line for each of %v", notes, names)
	}
	for i, name := range names {
		if !strings.Contains(notes[i], "stray "+name+" removed-on-open") {
			t.Fatalf("open diagnostic %q does not name the removal of %s", notes[i], name)
		}
	}
}

// writeV1Sidecar writes the envelope sidecar the way versions before the
// chunked format did: one checksummed run of (id, envelope) records, IDs
// dense from 0.
func writeV1Sidecar(t *testing.T, path string, data [][]float64) {
	t.Helper()
	buf := append([]byte("TWPE"), 1, 0, 0, 0, seq.PAASegments, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(data)))
	for id, s := range data {
		e, err := seq.ExtractPAAEnvelope(s)
		if err != nil {
			t.Fatal(err)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Len))
		for _, v := range e.Min {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		for _, v := range e.Max {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFlatEngineStorm races concurrent searches, k-NN walks, a writer and a
// remover over a ShardedDB; the writer inserts enough short sequences to
// push each shard's delta past the merge threshold, so background snapshot
// swaps happen under the readers. Run with -race this is the library-level
// proof that readers never lock and never see a torn tree.
func TestFlatEngineStorm(t *testing.T) {
	db, err := twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	data := randomWalks(8080, 120, 8, 16)
	ids, err := db.AddBatch(data)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	fail := make(chan error, 8)

	// Two query workers: range search + k-NN, fixed iteration counts so the
	// storm terminates on its own.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 120; i++ {
				q := data[rng.Intn(len(data))]
				if _, err := db.Search(q, 0.3); err != nil {
					fail <- err
					return
				}
				if _, err := db.NearestK(q, 3); err != nil {
					fail <- err
					return
				}
			}
		}(int64(w))
	}
	// One writer, one remover (of the writer's own IDs via a channel).
	written := make(chan twsim.ID, 256)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 9000; i++ {
			id, err := db.Add(data[rng.Intn(len(data))])
			if err != nil {
				fail <- err
				return
			}
			if i%2 == 0 {
				select {
				case written <- id:
				default:
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 150; i++ {
			var id twsim.ID
			select {
			case id = <-written:
			default:
				id = ids[rng.Intn(len(ids))]
			}
			if _, err := db.Remove(id); err != nil {
				fail <- err
				return
			}
		}
	}()

	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	if err := db.Verify(); err != nil {
		t.Fatalf("Verify after storm: %v", err)
	}
	if st := db.IndexEngineStats(); st.Merges == 0 {
		t.Fatalf("no merge ran during the storm (delta %d entries): the readers never raced a snapshot swap", st.DeltaEntries)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEnvelopeSidecarV2Rederived: a directory whose envelopes.paa is the
// version-2 sidecar (the chunked slots with float64 bounds) opens with the
// file removed unread and one line saying so, the envelopes derived from
// the heap, and then answers banded k-NN and range queries exactly as a
// database that never held the old file; no sidecar is written again.
func TestEnvelopeSidecarV2Rederived(t *testing.T) {
	data, qs := knnCorpus(rand.New(rand.NewSource(2043)), 1500, 48, 6)
	dir := t.TempDir()
	db, err := twsim.Create(dir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	sidecar := filepath.Join(dir, "envelopes.paa")
	writeV2Sidecar(t, sidecar, data)

	db, err = twsim.Open(dir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireStrayNotes(t, db.OpenDiagnostics(), "envelopes.paa")
	if err := db.Verify(); err != nil {
		t.Fatal(err)
	}
	fresh, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	requireSameAnswers(t, db, fresh, qs)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sidecar); !os.IsNotExist(err) {
		t.Fatalf("a sidecar is back after Close (stat: %v)", err)
	}
	db, err = twsim.Open(dir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.LastRepair().Repaired() || len(db.OpenDiagnostics()) != 0 {
		t.Fatalf("the reopened directory needed another repair: %+v %q", db.LastRepair(), db.OpenDiagnostics())
	}
}

// requireSameAnswers: for every query, banded k-NN (k 10, band 4) and
// banded and unbanded range searches on got return want's matches, the
// same IDs in the same order at the same distance bits.
func requireSameAnswers(t *testing.T, got, want twsim.Backend, qs [][]float64) {
	t.Helper()
	for _, q := range qs {
		for name, run := range map[string]func(twsim.Backend) (*twsim.Result, error){
			"knn k10 band4":    func(b twsim.Backend) (*twsim.Result, error) { return b.NearestKCtx(nil, q, 10, 4) },
			"range 1.5 band4":  func(b twsim.Backend) (*twsim.Result, error) { return b.SearchCtx(nil, q, 1.5, 4) },
			"range 0.6 band 0": func(b twsim.Backend) (*twsim.Result, error) { return b.SearchCtx(nil, q, 0.6, 0) },
		} {
			w, err := run(want)
			if err != nil {
				t.Fatal(err)
			}
			g, err := run(got)
			if err != nil {
				t.Fatal(err)
			}
			if len(g.Matches) != len(w.Matches) {
				t.Fatalf("%s: %d matches, want %d", name, len(g.Matches), len(w.Matches))
			}
			for i := range w.Matches {
				if g.Matches[i].ID != w.Matches[i].ID || math.Float64bits(g.Matches[i].Dist) != math.Float64bits(w.Matches[i].Dist) {
					t.Fatalf("%s match %d: %+v, want %+v", name, i, g.Matches[i], w.Matches[i])
				}
			}
		}
	}
}

// TestOpenDerivesEverythingFromTheHeap: after adds, a batch, removes, a
// checkpoint and a close, the directory holds the heap (data.twp, dir.bin),
// the log with the WAL, and the index image Close leaves for outside
// tools; an open database's directory holds no index or envelope file at
// all. The reopened database answers range and banded k-NN queries
// bit-identically to an in-memory database fed the same operations, and
// still does when garbage feature.flat, feature.rtree and envelopes.paa
// files sit in the directory: Open removes all three unread, with one
// line each for the two an older version kept.
func TestOpenDerivesEverythingFromTheHeap(t *testing.T) {
	data, qs := knnCorpus(rand.New(rand.NewSource(2047)), 700, 40, 5)
	for _, wal := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", wal), func(t *testing.T) {
			dir := t.TempDir()
			opts := twsim.Options{WAL: wal}
			db, err := twsim.Create(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			mem, err := twsim.OpenMem(twsim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer mem.Close()
			for _, b := range []twsim.Backend{db, mem} {
				if _, err := b.AddBatch(data[:500]); err != nil {
					t.Fatal(err)
				}
				for _, s := range data[500:600] {
					if _, err := b.Add(s); err != nil {
						t.Fatal(err)
					}
				}
				for id := twsim.ID(3); id < 600; id += 11 {
					if _, err := b.Remove(id); err != nil {
						t.Fatal(err)
					}
				}
				if err := b.Flush(); err != nil {
					t.Fatal(err)
				}
				if _, err := b.AddBatch(data[600:]); err != nil {
					t.Fatal(err)
				}
			}
			requireDirHolds(t, dir, wal, "data.twp", "dir.bin")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			requireDirHolds(t, dir, wal, "data.twp", "dir.bin", "feature.flat")

			db, err = twsim.Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if db.LastRepair().Repaired() || len(db.OpenDiagnostics()) != 0 {
				t.Fatalf("clean open: %+v %q", db.LastRepair(), db.OpenDiagnostics())
			}
			requireDirHolds(t, dir, wal, "data.twp", "dir.bin")
			requireSameAnswers(t, db, mem, qs)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			for _, name := range []string{"feature.flat", "feature.rtree", "envelopes.paa"} {
				if err := os.WriteFile(filepath.Join(dir, name), []byte("garbage"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			db, err = twsim.Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			requireStrayNotes(t, db.OpenDiagnostics(), "feature.rtree", "envelopes.paa")
			requireDirHolds(t, dir, wal, "data.twp", "dir.bin")
			requireSameAnswers(t, db, mem, qs)
			if err := db.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// requireDirHolds: dir holds exactly the named files, plus wal.log when
// the WAL is on.
func requireDirHolds(t *testing.T, dir string, wal bool, names ...string) {
	t.Helper()
	if wal {
		names = append(names, "wal.log")
	}
	sort.Strings(names)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if strings.Join(got, " ") != strings.Join(names, " ") {
		t.Fatalf("the directory holds %v, want %v", got, names)
	}
}

// writeV2Sidecar writes the envelope sidecar the way version 2 did: the
// chunked slots of 1 024 records, each record a u32 length and float64
// bounds, under one CRC a slot.
func writeV2Sidecar(t *testing.T, path string, data [][]float64) {
	t.Helper()
	const chunk = 1024
	buf := append([]byte("TWPE"), 2, 0, 0, 0, seq.PAASegments, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint32(buf, chunk)
	for lo := 0; lo < len(data); lo += chunk {
		start := len(buf)
		for id := lo; id < lo+chunk; id++ {
			var e seq.PAAEnvelope
			if id < len(data) {
				var err error
				if e, err = seq.ExtractPAAEnvelope(data[id]); err != nil {
					t.Fatal(err)
				}
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Len))
			for _, v := range append(e.Min[:], e.Max[:]...) {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}
