package twsim

// Crash simulation for the WAL: each test builds a "crash image" — a
// byte-level copy of the database directory taken while the database is
// still open, so nothing beyond what fsync covered is on "disk" — then
// reopens the image and requires the recovered state to match a
// never-crashed database holding exactly the acknowledged writes, record
// for record and query for query.

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fsx"
	"repro/internal/wal"
)

// crashOpts runs the WAL with immediate fsync so every returned Add/Remove
// is acknowledged-durable the moment it returns.
func crashOpts() Options {
	return Options{WAL: true, WALFlushInterval: -1}
}

func crashSequences(n, length int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		s := make([]float64, length)
		v := rng.Float64() * 10
		for j := range s {
			v += rng.Float64() - 0.5
			s[j] = v
		}
		out[i] = s
	}
	return out
}

// copyTree copies the database directory byte for byte — the crash image.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatalf("copying crash image: %v", err)
	}
}

// requireIdentical asserts got holds exactly the state of want: same live
// count, same per-ID contents (including tombstones), and bit-identical
// Search answers for a probe query.
func requireIdentical(t *testing.T, got, want *DB, probe []float64) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	if gn, wn := got.NumRecords(), want.NumRecords(); gn != wn {
		t.Fatalf("NumRecords = %d, want %d", gn, wn)
	}
	for id := 0; id < want.NumRecords(); id++ {
		wv, werr := want.Get(ID(id))
		gv, gerr := got.Get(ID(id))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("record %d liveness differs: want err %v, got err %v", id, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if len(wv) != len(gv) {
			t.Fatalf("record %d length differs", id)
		}
		for k := range wv {
			if math.Float64bits(wv[k]) != math.Float64bits(gv[k]) {
				t.Fatalf("record %d element %d differs: %v vs %v", id, k, wv[k], gv[k])
			}
		}
	}
	wres, err := want.Search(probe, 25)
	if err != nil {
		t.Fatal(err)
	}
	gres, err := got.Search(probe, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(wres.Matches) != len(gres.Matches) {
		t.Fatalf("search matches = %d, want %d", len(gres.Matches), len(wres.Matches))
	}
	for i := range wres.Matches {
		if wres.Matches[i].ID != gres.Matches[i].ID ||
			math.Float64bits(wres.Matches[i].Dist) != math.Float64bits(gres.Matches[i].Dist) {
			t.Fatalf("search match %d differs: %+v vs %+v", i, gres.Matches[i], wres.Matches[i])
		}
	}
}

// buildReference constructs the never-crashed database holding the given
// writes (applied in the same order).
func buildReference(t *testing.T, seqs [][]float64, removes []ID) *DB {
	t.Helper()
	return buildReferenceBulk(t, seqs, 0, removes)
}

// buildReferenceBulk is buildReference for an image whose first n
// sequences went in as one AddAll.
func buildReferenceBulk(t *testing.T, seqs [][]float64, n int, removes []ID) *DB {
	t.Helper()
	ref, err := Create(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	if n > 0 {
		if _, err := ref.AddAll(seqs[:n]); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range seqs[n:] {
		if _, err := ref.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range removes {
		if _, err := ref.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

// TestCrashKillAndReopenLosesNothing is the headline acceptance check:
// kill -9 (simulated by copying the directory mid-flight, no Flush/Close)
// and reopen — every acknowledged write survives.
func TestCrashKillAndReopenLosesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Create(dir, crashOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	seqs := crashSequences(30, 24, 11)
	for _, s := range seqs {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	removes := []ID{2, 17}
	for _, id := range removes {
		if ok, err := db.Remove(id); err != nil || !ok {
			t.Fatalf("Remove(%d) = %v, %v", id, ok, err)
		}
	}

	crash := filepath.Join(t.TempDir(), "crash")
	copyTree(t, dir, crash)

	re, err := Open(crash, crashOpts())
	if err != nil {
		t.Fatalf("reopening crash image: %v", err)
	}
	defer re.Close()
	requireIdentical(t, re, buildReference(t, seqs, removes), seqs[5])
}

// TestCrashTornFinalRecord chops the crash image's WAL mid-way through the
// final record — the classic torn write. The final write was therefore
// never acknowledged; recovery must keep everything before it and heal the
// log.
func TestCrashTornFinalRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Create(dir, crashOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	seqs := crashSequences(12, 24, 12)
	for _, s := range seqs {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}

	crash := filepath.Join(t.TempDir(), "crash")
	copyTree(t, dir, crash)

	// Find the last record's start via a full scan, then cut into it.
	walPath := filepath.Join(crash, "wal.log")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	const headerLen = 16
	recs, _, serr := wal.ScanRecords(raw[headerLen:], 1)
	if serr != nil || len(recs) != len(seqs) {
		t.Fatalf("precondition: scanned %d records, err %v", len(recs), serr)
	}
	offs := recordOffsets(t, raw[headerLen:])
	lastStart := headerLen + offs[len(offs)-1]
	cut := lastStart + (len(raw)-lastStart)/2
	if err := os.WriteFile(walPath, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(crash, crashOpts())
	if err != nil {
		t.Fatalf("reopening torn image: %v", err)
	}
	defer re.Close()
	requireIdentical(t, re, buildReference(t, seqs[:len(seqs)-1], nil), seqs[3])

	// The torn tail must have been truncated away so new writes append
	// cleanly and survive the next replay.
	if _, err := re.Add(seqs[len(seqs)-1]); err != nil {
		t.Fatal(err)
	}
	if re.Len() != len(seqs) {
		t.Fatalf("post-heal Len = %d, want %d", re.Len(), len(seqs))
	}
}

// TestCrashCorruptMiddleRecord flips a byte in the middle of the crash
// image's WAL: replay must apply the valid prefix and stop, never applying
// records past the corruption.
func TestCrashCorruptMiddleRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Create(dir, crashOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	seqs := crashSequences(10, 24, 13)
	for _, s := range seqs {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}

	crash := filepath.Join(t.TempDir(), "crash")
	copyTree(t, dir, crash)

	walPath := filepath.Join(crash, "wal.log")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	const headerLen = 16
	offs := recordOffsets(t, raw[headerLen:])
	if len(offs) != len(seqs) {
		t.Fatalf("precondition: %d record offsets", len(offs))
	}
	// Corrupt record 5's payload: everything from record 5 on is lost (the
	// valid prefix is records 0..4).
	mid := headerLen + offs[5] + 10
	raw[mid] ^= 0xFF
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(crash, crashOpts())
	if err != nil {
		t.Fatalf("reopening corrupt image: %v", err)
	}
	defer re.Close()
	requireIdentical(t, re, buildReference(t, seqs[:5], nil), seqs[3])
}

// TestCrashDuplicateReplayAfterCheckpointedHeap simulates a crash between
// the heap flush and the WAL truncation inside a checkpoint: the heap
// already holds every record, and the WAL still holds every record. Replay
// must recognize each record as already applied and skip it — applying
// any of them twice would duplicate records.
func TestCrashDuplicateReplayAfterCheckpointedHeap(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Create(dir, crashOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	seqs := crashSequences(15, 24, 14)
	for _, s := range seqs {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	removes := []ID{1, 8}
	for _, id := range removes {
		if ok, err := db.Remove(id); err != nil || !ok {
			t.Fatalf("Remove(%d): %v %v", id, ok, err)
		}
	}
	// Flush the heap directly — NOT db.Flush(), which would also truncate
	// the WAL. This is exactly the on-disk state of a crash after the
	// checkpoint's heap fsync but before its log truncation.
	if err := db.store.Flush(); err != nil {
		t.Fatal(err)
	}

	crash := filepath.Join(t.TempDir(), "crash")
	copyTree(t, dir, crash)

	re, err := Open(crash, crashOpts())
	if err != nil {
		t.Fatalf("reopening mid-checkpoint image: %v", err)
	}
	defer re.Close()
	requireIdentical(t, re, buildReference(t, seqs, removes), seqs[4])
}

// deltaCheckpointImage builds the state the remaining crash tests start
// from: a bulk-loaded snapshot of bulk sequences, then 15 single adds and 2
// removes checkpointed by a Flush — which saves the index as it stands, so
// feature.flat carries a delta section of adds and tombstones — then 15 more
// adds and 3 removes, acknowledged but seen by no file save. It returns the
// open database, every sequence added and every ID removed.
func deltaCheckpointImage(t *testing.T, dir string, bulk int) (*DB, [][]float64, []ID) {
	t.Helper()
	db, err := Create(dir, crashOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	seqs := crashSequences(bulk+30, 24, 21)
	if _, err := db.AddAll(seqs[:bulk]); err != nil {
		t.Fatal(err)
	}
	for _, s := range seqs[bulk : bulk+15] {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	removes := []ID{3, ID(bulk + 1)}
	for _, id := range removes {
		if ok, err := db.Remove(id); err != nil || !ok {
			t.Fatalf("Remove(%d) = %v, %v", id, ok, err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := db.IndexEngineStats(); st.DeltaEntries != 15 || st.Merges != 0 {
		t.Fatalf("the checkpoint left delta=%d merges=%d, want the 14 adds and 1 tombstone unmerged", st.DeltaEntries, st.Merges)
	}
	for _, s := range seqs[bulk+15:] {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []ID{7, ID(bulk + 10), ID(bulk + 20)} {
		if ok, err := db.Remove(id); err != nil || !ok {
			t.Fatalf("Remove(%d) = %v, %v", id, ok, err)
		}
		removes = append(removes, id)
	}
	return db, seqs, removes
}

// TestCrashAfterDeltaCheckpoint: kill -9 some writes after a checkpoint
// that persisted a non-empty delta. The reopened index starts from that
// snapshot + delta, the WAL tail brings the heap forward, and one heap scan
// re-indexes exactly the tail: nothing acknowledged is lost, nothing is
// rebuilt, and the diagnostics say what happened.
func TestCrashAfterDeltaCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	_, seqs, removes := deltaCheckpointImage(t, dir, 30)
	crash := filepath.Join(t.TempDir(), "crash")
	copyTree(t, dir, crash)

	re, err := Open(crash, crashOpts())
	if err != nil {
		t.Fatalf("reopening crash image: %v", err)
	}
	defer re.Close()
	requireIdentical(t, re, buildReferenceBulk(t, seqs, 30, removes), seqs[5])
	if err := re.Verify(); err != nil {
		t.Fatal(err)
	}
	// The tail: 15 adds, one of them (50) removed again, plus the removes of
	// 7 and 40, which the persisted index still holds.
	rs := re.LastRepair()
	if rs.Rebuilt || rs.Orphans != 14 || rs.Dangling != 2 || rs.Mismatched != 0 || rs.Envelopes != 14 {
		t.Fatalf("LastRepair = %+v, want 14 orphans re-indexed, 2 dangling removed, 14 envelopes derived, no rebuild", rs)
	}
	notes := strings.Join(re.OpenDiagnostics(), "\n")
	for _, want := range []string{
		"wal: replayed 18 mutations",
		"index reconciled-on-open: indexed=43 live=55",
		"envelope-sidecar reconciled-on-open: stored=43 derived=14 live=55",
	} {
		if !strings.Contains(notes, want) {
			t.Errorf("open diagnostics lack %q:\n%s", want, notes)
		}
	}
	if strings.Contains(notes, "rebuilt-on-open") {
		t.Errorf("open diagnostics speak of a rebuild:\n%s", notes)
	}
}

// TestCrashBetweenHeapSyncAndIndexSave kills a checkpoint after its heap
// fsync and before its index save: the heap and its directory hold every
// record, feature.flat and the sidecar are the previous checkpoint's, and
// the WAL still holds the whole tail. Replay must skip every record as
// already applied, and the reconcile pass must still run — the counts
// disagree — and bring index and envelopes up to the heap.
func TestCrashBetweenHeapSyncAndIndexSave(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, seqs, removes := deltaCheckpointImage(t, dir, 30)
	if err := db.store.Flush(); err != nil {
		t.Fatal(err)
	}
	crash := filepath.Join(t.TempDir(), "crash")
	copyTree(t, dir, crash)

	re, err := Open(crash, crashOpts())
	if err != nil {
		t.Fatalf("reopening mid-checkpoint image: %v", err)
	}
	defer re.Close()
	requireIdentical(t, re, buildReferenceBulk(t, seqs, 30, removes), seqs[5])
	if err := re.Verify(); err != nil {
		t.Fatal(err)
	}
	if rs := re.LastRepair(); rs.Rebuilt || rs.Orphans != 14 || rs.Dangling != 2 || rs.Envelopes != 14 {
		t.Fatalf("LastRepair = %+v, want 14 orphans, 2 dangling, 14 envelopes, no rebuild", rs)
	}
	if notes := strings.Join(re.OpenDiagnostics(), "\n"); strings.Contains(notes, "wal: replayed") {
		t.Errorf("replay applied records the heap already held:\n%s", notes)
	}
}

// TestReopenReadsTheHeapOnce: recovery after a kill costs one pass over the
// heap, not three (the index reconcile, an envelope rebuild and a second
// envelope rebuild used to scan it each), and a reopen after a clean
// checkpoint costs none: index, delta and envelopes all come from their
// files.
func TestReopenReadsTheHeapOnce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, _, _ := deltaCheckpointImage(t, dir, 600)
	crash := filepath.Join(t.TempDir(), "crash")
	copyTree(t, dir, crash)

	re, err := Open(crash, crashOpts())
	if err != nil {
		t.Fatal(err)
	}
	// One scan fetches each heap page once and the replay's 15 appends a
	// page or two each; the three scans this used to cost fetch every page
	// three times.
	pages := re.DataBytes() / 1024
	if reads := re.store.Stats().Reads; reads < pages || reads >= 2*pages {
		t.Fatalf("recovery fetched %d heap pages of %d: want one scan's worth", reads, pages)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// A checkpoint with a delta pending, then a kill: nothing to recover.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	merges := db.IndexEngineStats().Merges
	clean := filepath.Join(t.TempDir(), "clean")
	copyTree(t, dir, clean)
	re, err = Open(clean, crashOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if reads := re.store.Stats().Reads; reads != 0 {
		t.Fatalf("reopening a checkpointed image fetched %d heap pages, want 0", reads)
	}
	if notes := re.OpenDiagnostics(); len(notes) != 0 || re.LastRepair().Repaired() {
		t.Fatalf("reopening a checkpointed image repaired something: %+v %q", re.LastRepair(), notes)
	}
	if st := re.IndexEngineStats(); st.DeltaEntries == 0 || merges != 0 {
		t.Fatalf("the checkpoint merged (merges=%d) or lost its delta (%d entries)", merges, st.DeltaEntries)
	}
	if err := re.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCostsWhatChanged: a Flush after a small batch merges
// nothing and rewrites only what the batch touched — feature.flat keeps its
// slab byte for byte and gains the batch as a delta section, and the
// envelope sidecar changes inside the one chunk slot the new IDs fall in.
func TestCheckpointCostsWhatChanged(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	seqs := crashSequences(5000+32, 12, 23)
	if _, err := db.AddAll(seqs[:5000]); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	read := func(name string) []byte {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	flatBefore, envBefore := read(indexFileName), read(envsFileName)

	if _, err := db.AddAll(seqs[5000:]); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := db.IndexEngineStats(); st.Merges != 0 || st.DeltaEntries != 32 {
		t.Fatalf("after the checkpoint: merges=%d delta=%d, want 0 and the batch's 32", st.Merges, st.DeltaEntries)
	}
	flatAfter, envAfter := read(indexFileName), read(envsFileName)
	const deltaSection = 12 + 32*36 + 4 // header, 32 items, checksum
	if len(flatAfter) != len(flatBefore)+deltaSection || !bytes.Equal(flatAfter[:len(flatBefore)], flatBefore) {
		t.Fatalf("feature.flat went from %d to %d bytes: want the same slab and a %d-byte delta section behind it",
			len(flatBefore), len(flatAfter), deltaSection)
	}
	// IDs 5000..5031 sit in the fifth chunk of 1024, which the first
	// checkpoint already wrote: same size, and no byte outside that slot moved.
	if len(envAfter) != len(envBefore) {
		t.Fatalf("envelopes.paa went from %d to %d bytes", len(envBefore), len(envAfter))
	}
	const header = 16
	slot := (len(envAfter) - header) / 5
	if !bytes.Equal(envAfter[:header+4*slot], envBefore[:header+4*slot]) {
		t.Fatal("the checkpoint rewrote envelope chunks the batch did not touch")
	}
	if bytes.Equal(envAfter[header+4*slot:], envBefore[header+4*slot:]) {
		t.Fatal("the checkpoint did not save the batch's envelopes")
	}
}

// TestDirSyncFailureSurfacesThroughSave proves the shared directory-fsync
// helper is actually on every durable save path: an injected dir-sync
// failure must surface as an error from the database's own Flush, not be
// swallowed.
func TestDirSyncFailureSurfacesThroughSave(t *testing.T) {
	db, err := Create(filepath.Join(t.TempDir(), "db"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, s := range crashSequences(5, 16, 15) {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}

	injected := errors.New("injected dir-sync failure")
	fsx.SyncDirHook = func(dir string) error { return injected }
	defer func() { fsx.SyncDirHook = nil }()

	if err := db.Flush(); !errors.Is(err, injected) {
		t.Fatalf("Flush with failing dir sync = %v, want the injected error", err)
	}

	// With the hook cleared the same flush succeeds — the failure above
	// came from the injection, not collateral state damage.
	fsx.SyncDirHook = nil
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush after clearing hook: %v", err)
	}
}

// recordOffsets returns each record's byte offset within a WAL body (the
// file minus its header).
func recordOffsets(t *testing.T, body []byte) []int {
	t.Helper()
	var offs []int
	off := 0
	for off < len(body) {
		offs = append(offs, off)
		span := recordSpan(body[off:])
		if span <= 8 {
			t.Fatalf("stuck scanning wal body at offset %d", off)
		}
		off += span
	}
	return offs
}

// recordSpan reads one record's framed length from the front of buf.
func recordSpan(buf []byte) int {
	if len(buf) < 4 {
		return len(buf)
	}
	n := int(uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24)
	total := 4 + n + 4
	if total > len(buf) {
		return len(buf)
	}
	return total
}
