package twsim_test

import (
	"context"
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

// openEngine opens an in-memory backend over the named index engine: "flat",
// the one every database serves from, or "guttman", the paper's paged R-tree
// wired in as the baseline twin (OpenMemBaseline).
func openEngine(t *testing.T, engine string, opts twsim.Options, sharded bool) twsim.Backend {
	t.Helper()
	var b twsim.Backend
	var err error
	so := twsim.ShardedOptions{Options: opts, Shards: 3}
	switch {
	case engine == "guttman" && sharded:
		b, err = twsim.OpenMemShardedBaseline(so)
	case engine == "guttman":
		b, err = twsim.OpenMemBaseline(opts)
	case sharded:
		b, err = twsim.OpenMemSharded(so)
	default:
		b, err = twsim.OpenMem(opts)
	}
	if err != nil {
		t.Fatalf("open %s backend: %v", engine, err)
	}
	return b
}

// openPair builds an R-tree baseline and a flat backend over the same
// options, so every query can be checked for bit-identity between engines.
func openPair(t *testing.T, base twsim.Base, workers, band int, sharded bool) (guttman, flat twsim.Backend) {
	t.Helper()
	opts := twsim.Options{Base: base, RefineWorkers: workers, Band: band}
	return openEngine(t, "guttman", opts, sharded), openEngine(t, "flat", opts, sharded)
}

func matchesEqual(a, b []twsim.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

// checkIdentical runs Search and NearestK on both backends
// and demands bit-identical matches (same IDs, same float64 distances, same
// order). The engines walk different structures but answer from the same
// closed query rect and the same refinement cascade, so the match sets —
// unique by (Dist, ID) with overwhelming probability on random walks — must
// agree exactly.
//
// With exactWork set (one refine worker, one partition: nothing reads a
// momentarily stale cutoff) the k-NN work must agree too. Both engines key
// their walk through the same envelope store, so they stream the same
// candidates at the same keys and stop on the same one: equal candidate
// counts and envelope cutoffs, over snapshot items and delta adds alike.
// Frontier re-pushes are not compared: an item re-enters the frontier when
// its sharpened key exceeds the frontier's minimum, and that minimum is
// often a node, whose mindist depends on how the engine packed it (15 of 180
// k-NN queries over a 3 000-sequence corpus differed in re-pushes, none in
// candidates or cutoffs).
func checkIdentical(t *testing.T, guttman, flat twsim.Backend, rng *rand.Rand, data [][]float64, band int, exactWork bool) {
	t.Helper()
	for trial := 0; trial < 6; trial++ {
		q := append([]float64(nil), data[rng.Intn(len(data))]...)
		for i := range q {
			q[i] += (rng.Float64() - 0.5) * 0.1
		}
		eps := 0.1 + rng.Float64()*0.7

		gr, err := guttman.SearchCtx(context.Background(), q, eps, band)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := flat.SearchCtx(context.Background(), q, eps, band)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesEqual(gr.Matches, fr.Matches) {
			t.Fatalf("trial %d eps=%g: Search diverged: guttman %d matches, flat %d",
				trial, eps, len(gr.Matches), len(fr.Matches))
		}
		k := 1 + rng.Intn(8)
		gk, err := guttman.NearestKCtx(context.Background(), q, k, band)
		if err != nil {
			t.Fatal(err)
		}
		fk, err := flat.NearestKCtx(context.Background(), q, k, band)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesEqual(gk.Matches, fk.Matches) {
			t.Fatalf("trial %d k=%d: NearestK diverged", trial, k)
		}
		// Both engines must satisfy the conservation law independently, on
		// both query kinds.
		for _, r := range []*twsim.Result{gr, fr, gk, fk} {
			pruned := r.Stats.LBPAAPruned + r.Stats.LBKeoghPruned + r.Stats.CorridorPruned
			if r.Stats.Candidates != pruned+r.Stats.DTWCalls {
				t.Fatalf("trial %d: conservation law broken: candidates=%d pruned=%d dtw=%d",
					trial, r.Stats.Candidates, pruned, r.Stats.DTWCalls)
			}
		}
		if gr.Stats.Candidates != fr.Stats.Candidates {
			t.Fatalf("trial %d eps=%g: Search candidates diverged: guttman %d, flat %d",
				trial, eps, gr.Stats.Candidates, fr.Stats.Candidates)
		}
		if gs, fs := gk.Stats, fk.Stats; exactWork &&
			(gs.Candidates != fs.Candidates || gs.KNNEnvCutoffs != fs.KNNEnvCutoffs) {
			t.Fatalf("trial %d k=%d band=%d: k-NN work diverged: guttman candidates=%d envCutoffs=%d, flat %d/%d",
				trial, k, band, gs.Candidates, gs.KNNEnvCutoffs, fs.Candidates, fs.KNNEnvCutoffs)
		}
	}
}

// TestFlatEngineOracle: a database must answer Search and NearestK
// bit-identically to its R-tree baseline twin — across all three
// bases, both backends (DB and ShardedDB), serial and parallel refinement,
// and unbanded plus banded queries — through a lifecycle of bulk load and
// interleaved inserts and removes, so queries run against the packed
// snapshot alone and against snapshot + delta adds + tombstones.
// (TestFlatEngineMergesFire carries the comparison across a merge; the
// index-level twin of this test is internal/core's TestFlatEngineOracle.)
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
						guttman, flat := openPair(t, base, workers, band, sharded)
						defer guttman.Close()
						defer flat.Close()

						// Phase 1: bulk load (flat: STR-packed snapshot).
						for _, b := range []twsim.Backend{guttman, flat} {
							if _, err := b.AddBatch(data); err != nil {
								t.Fatal(err)
							}
						}
						rng := rand.New(rand.NewSource(99))
						checkIdentical(t, guttman, flat, rng, data, band, workers == 1 && !sharded)

						// Phase 2: interleaved inserts and removes, all of
						// which stay in the delta.
						live := append([][]float64(nil), data...)
						gids, err := guttman.AddBatch(extra)
						if err != nil {
							t.Fatal(err)
						}
						fids, err := flat.AddBatch(extra)
						if err != nil {
							t.Fatal(err)
						}
						live = append(live, extra...)
						for i := 0; i < 25; i++ {
							j := rng.Intn(len(extra))
							if _, err := guttman.Remove(gids[j]); err != nil {
								t.Fatal(err)
							}
							if _, err := flat.Remove(fids[j]); err != nil {
								t.Fatal(err)
							}
						}
						checkIdentical(t, guttman, flat, rng, live, band, workers == 1 && !sharded)

						if got, want := flat.Len(), guttman.Len(); got != want {
							t.Fatalf("Len diverged: flat %d, guttman %d", got, want)
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
// the database answers like its baseline twin before and after the swap.
func TestFlatEngineMergesFire(t *testing.T) {
	guttman, flat := openPair(t, twsim.BaseLInf, 1, 0, false)
	defer guttman.Close()
	defer flat.Close()
	data := randomWalks(7, 4300, 8, 16)
	for _, s := range data {
		for _, b := range []twsim.Backend{guttman, flat} {
			if _, err := b.Add(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(17))
	checkIdentical(t, guttman, flat, rng, data, 0, true)
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
	checkIdentical(t, guttman, flat, rng, data, 0, true)
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
	if _, err := db.AddAll(data); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(flatDir, "feature.flat")
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("index image not written on close: %v", err)
	}

	guttman, err := twsim.OpenMemBaseline(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer guttman.Close()
	if _, err := guttman.AddAll(data); err != nil {
		t.Fatal(err)
	}

	db, err = twsim.Open(flatDir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db.LastRepair().Repaired() || len(db.OpenDiagnostics()) != 0 {
		t.Fatalf("clean reopen repaired something: %+v %q", db.LastRepair(), db.OpenDiagnostics())
	}
	requireNoDerivedFiles(t, flatDir)
	rng := rand.New(rand.NewSource(11))
	checkIdentical(t, guttman, db, rng, data, 0, false)
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
	checkIdentical(t, guttman, db, rng, data, 0, false)
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
	if _, err := db.AddAll(data); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	guttman, err := twsim.OpenMemBaseline(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer guttman.Close()
	if _, err := guttman.AddAll(data); err != nil {
		t.Fatal(err)
	}

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
	checkIdentical(t, guttman, db, rng, data, 4, false)
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
	if _, err := db.AddAll(data); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	guttman, err := twsim.OpenMemBaseline(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer guttman.Close()
	if _, err := guttman.AddAll(data); err != nil {
		t.Fatal(err)
	}

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
	checkIdentical(t, guttman, db, rand.New(rand.NewSource(19)), data, 0, false)
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
