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

// checkIdentical runs Search, NearestK, and SearchBatch on both backends
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
			pruned := r.Stats.LBPAAPruned + r.Stats.LBKeoghPruned + r.Stats.LBImprovedPruned + r.Stats.CorridorPruned
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

	batch := make([][]float64, 5)
	for i := range batch {
		batch[i] = data[rng.Intn(len(data))]
	}
	eps := 0.4
	grs, err := guttman.SearchBatchCtx(context.Background(), batch, eps, band, 2)
	if err != nil {
		t.Fatal(err)
	}
	frs, err := flat.SearchBatchCtx(context.Background(), batch, eps, band, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range grs {
		if !matchesEqual(grs[i].Matches, frs[i].Matches) {
			t.Fatalf("SearchBatch query %d diverged", i)
		}
	}
}

// TestFlatEngineOracle: a database must answer Search, NearestK, and
// SearchBatch bit-identically to its R-tree baseline twin — across all three
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

// TestFlatEnginePersistence: an on-disk database round-trips its index
// through Close/Open, survives snapshot corruption by rebuilding on open
// (with a diagnostic note), and keeps answering queries identically to its
// baseline twin after both.
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
	if _, err := os.Stat(filepath.Join(flatDir, "feature.flat")); err != nil {
		t.Fatalf("flat snapshot file not written: %v", err)
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
	rng := rand.New(rand.NewSource(11))
	checkIdentical(t, guttman, db, rng, data, 0, false)
	if err := db.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the snapshot payload; the CRC must catch it and Open must
	// rebuild from the heap, noting the repair. The mmap open path defers
	// body checks past Open (lazy CRC, caught by Verify instead), so pin
	// this half to the eager fallback reader.
	t.Setenv("TWSIM_NO_MMAP", "1")
	snapPath := filepath.Join(flatDir, "feature.flat")
	raw, err := os.ReadFile(snapPath)
	if err != nil {
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
	if !db.LastRepair().Rebuilt {
		t.Fatal("corrupted snapshot did not trigger rebuild-on-open")
	}
	if notes := db.OpenDiagnostics(); len(notes) == 0 {
		t.Fatal("rebuild-on-open left no open diagnostic")
	}
	checkIdentical(t, guttman, db, rng, data, 0, false)
	if err := db.Verify(); err != nil {
		t.Fatalf("Verify after rebuild: %v", err)
	}
}

// TestFlatEngineRebuildsEnvelopeSnapshot: a feature.flat written before the
// slab lost its per-item PAA envelope region (header flag bit 0 set, 260
// more bytes per item, checksum valid) is a layout this reader no longer
// knows. Open must refuse it, rebuild the index from the heap, say why in
// the diagnostics, answer exactly as before, and leave a current-layout
// file behind.
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
	if !db.LastRepair().Rebuilt {
		t.Fatal("envelope-carrying snapshot did not trigger rebuild-on-open")
	}
	notes := strings.Join(db.OpenDiagnostics(), "\n")
	if !strings.Contains(notes, "rebuilt-on-open") || !strings.Contains(notes, "envelope-carrying snapshot") {
		t.Fatalf("open diagnostics do not explain the rebuild:\n%s", notes)
	}
	rng := rand.New(rand.NewSource(13))
	checkIdentical(t, guttman, db, rng, data, 4, false)
	if err := db.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = twsim.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.LastRepair().Repaired() {
		t.Fatalf("the rebuilt snapshot needed another repair: %+v", db.LastRepair())
	}
}

// TestFlatEngineSwitchFromGuttman: a directory last served by a version that
// kept the index as a paged R-tree (feature.rtree, no feature.flat, a
// version-1 envelope sidecar) must open: the flat index is built from the
// heap (the source of truth), the R-tree file removed and the sidecar
// replaced, the open diagnostics call it a conversion, not a missing file,
// every answer is what it was, and the next open finds nothing to do.
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
	notes := strings.Join(db.OpenDiagnostics(), "\n")
	if !strings.Contains(notes, "converted from guttman to flat") {
		t.Fatalf("open diagnostics do not name the conversion:\n%s", notes)
	}
	if !strings.Contains(notes, "envelope-sidecar rebuilt-on-open") || !strings.Contains(notes, "version 1") {
		t.Fatalf("open diagnostics do not name the version-1 sidecar:\n%s", notes)
	}
	requireIndexFiles(t, dir)
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
	requireIndexFiles(t, dir)
}

// requireIndexFiles: the directory holds feature.flat and no feature.rtree.
func requireIndexFiles(t *testing.T, dir string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, "feature.flat")); err != nil {
		t.Fatalf("feature.flat: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "feature.rtree")); !os.IsNotExist(err) {
		t.Fatalf("feature.rtree still present (stat: %v)", err)
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
