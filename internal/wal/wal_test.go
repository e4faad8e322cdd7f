package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/seq"
)

func tmpLog(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(path, 1, Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return l, path
}

func s(vals ...float64) seq.Sequence { return seq.Sequence(vals) }

func TestAppendReplayRoundtrip(t *testing.T) {
	l, path := tmpLog(t)
	want := []Record{
		NewAdd(0, s(1, 2, 3)),
		NewAddBatch(1, []seq.Sequence{s(4), s(5, 6)}),
		NewRemove(1),
	}
	for i := range want {
		if err := l.Append(want[i]); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, recs, note, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l2.Close()
	if note != "" {
		t.Fatalf("unexpected truncation note %q", note)
	}
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d seq = %d", i, r.Seq)
		}
		if r.Type != want[i].Type || r.ID != want[i].ID || !reflect.DeepEqual(r.Data, want[i].Data) {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, r, want[i])
		}
	}
	if got := l2.LastSeq(); got != 3 {
		t.Fatalf("LastSeq after reopen = %d", got)
	}
}

func TestTornTailTruncated(t *testing.T) {
	l, path := tmpLog(t)
	for i := 0; i < 5; i++ {
		if err := l.Append(NewAdd(seq.ID(i), s(float64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the middle of the final record.
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, recs, note, err := Open(path)
	if err != nil {
		t.Fatalf("Open torn: %v", err)
	}
	if note == "" {
		t.Fatal("expected truncation note")
	}
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4", len(recs))
	}
	// The log must keep appending cleanly where the valid prefix ended.
	if err := l2.Append(NewAdd(4, s(99))); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, note, err = Open(path)
	if err != nil || note != "" {
		t.Fatalf("reopen after heal: %v note=%q", err, note)
	}
	if len(recs) != 5 || recs[4].Data[0][0] != 99 {
		t.Fatalf("post-heal replay wrong: %d records", len(recs))
	}
}

func TestCorruptMiddleStopsScan(t *testing.T) {
	l, path := tmpLog(t)
	for i := 0; i < 5; i++ {
		if err := l.Append(NewAdd(seq.ID(i), s(float64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, serr := ScanRecords(raw[headerLen:], 1)
	if serr != nil || len(recs) != 5 {
		t.Fatalf("precondition scan: %d recs, %v", len(recs), serr)
	}
	// Flip one payload byte in the third record.
	mid := len(raw) / 2
	raw[mid] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, recs, note, err := Open(path)
	if err != nil {
		t.Fatalf("Open corrupt: %v", err)
	}
	defer l2.Close()
	if note == "" {
		t.Fatal("expected truncation note for corrupt record")
	}
	if len(recs) >= 5 {
		t.Fatalf("scan did not stop at corruption: %d records", len(recs))
	}
	for i, r := range recs {
		if r.Data[0][0] != float64(i) {
			t.Fatalf("surviving record %d corrupted: %v", i, r.Data[0])
		}
	}
}

func TestGroupCommitBatchesConcurrentWriters(t *testing.T) {
	l, _ := tmpLog(t)
	defer l.Close()
	const writers, perWriter = 8, 10
	var wg sync.WaitGroup
	var mu sync.Mutex // stands in for the DB's writer serialization
	next := 0
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				mu.Lock()
				id := next
				next++
				commit, err := l.Begin(NewAdd(seq.ID(id), s(float64(id))))
				mu.Unlock()
				if err != nil {
					t.Errorf("Begin: %v", err)
					return
				}
				if err := commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	if st.Records != writers*perWriter {
		t.Fatalf("records = %d", st.Records)
	}
	if st.Fsyncs >= st.Records {
		t.Fatalf("no batching: %d fsyncs for %d records", st.Fsyncs, st.Records)
	}
	if st.Durable != st.Seq {
		t.Fatalf("durable %d != seq %d after all commits", st.Durable, st.Seq)
	}
}

func TestCheckpointResetsAndSeqStaysMonotone(t *testing.T) {
	l, path := tmpLog(t)
	for i := 0; i < 3; i++ {
		if err := l.Append(NewAdd(seq.ID(i), s(float64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if base := l.Base(); base != 4 {
		t.Fatalf("base after checkpoint = %d, want 4", base)
	}
	if st := l.Stats(); st.Fsyncs != 4 || st.FsyncHist.Count() != st.Fsyncs {
		t.Fatalf("after 3 appends and a checkpoint: %d fsyncs, %d timed; want 4 of each", st.Fsyncs, st.FsyncHist.Count())
	}
	if err := l.Append(NewAdd(3, s(42))); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs, note, err := Open(path)
	if err != nil || note != "" {
		t.Fatalf("reopen: %v note=%q", err, note)
	}
	defer l2.Close()
	if len(recs) != 1 || recs[0].Seq != 4 || recs[0].ID != 3 {
		t.Fatalf("post-checkpoint replay: %+v", recs)
	}
}

func TestTailSinceServesDurableRecordsAndCompaction(t *testing.T) {
	l, _ := tmpLog(t)
	defer l.Close()
	for i := 0; i < 4; i++ {
		if err := l.Append(NewAdd(seq.ID(i), s(float64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	data, last, err := l.TailSince(0, 1<<20)
	if err != nil {
		t.Fatalf("TailSince: %v", err)
	}
	if last != 4 {
		t.Fatalf("last = %d, want 4", last)
	}
	recs, _, serr := ScanRecords(data, 1)
	if serr != nil || len(recs) != 4 {
		t.Fatalf("tail scan: %d recs, %v", len(recs), serr)
	}

	// Byte cap lands on a record boundary and still returns progress.
	data, last, err = l.TailSince(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, serr = ScanRecords(data, 1)
	if serr != nil || len(recs) != 1 || last != 1 {
		t.Fatalf("capped tail: %d recs, last=%d, %v", len(recs), last, serr)
	}

	// Mid-stream cursor.
	data, last, err = l.TailSince(2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, serr = ScanRecords(data, 3)
	if serr != nil || len(recs) != 2 || last != 4 {
		t.Fatalf("mid tail: %d recs, last=%d, %v", len(recs), last, serr)
	}

	// Caught up.
	data, last, err = l.TailSince(4, 1<<20)
	if err != nil || len(data) != 0 || last != 4 {
		t.Fatalf("caught-up tail: %d bytes, last=%d, %v", len(data), last, err)
	}

	// After a checkpoint an old cursor must demand a re-bootstrap.
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.TailSince(2, 1<<20); !errors.Is(err, ErrCompacted) {
		t.Fatalf("stale cursor error = %v, want ErrCompacted", err)
	}
	// The post-checkpoint cursor (seq 4 = everything applied) is valid.
	if _, last, err := l.TailSince(4, 1<<20); err != nil || last != 4 {
		t.Fatalf("fresh cursor after checkpoint: last=%d, %v", last, err)
	}
}

func TestCommitAfterCloseAndStickySemantics(t *testing.T) {
	l, path := tmpLog(t)
	// Hold the committer's flush until Close begins, so the batch is still
	// pending when Close runs.
	l.beforeFlush = func() { <-l.quit }
	commit, err := l.Begin(NewAdd(0, s(1)))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- commit() }()
	// Close must flush the pending batch and release the waiter with nil.
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("commit after close-flush: %v", err)
	}
	if st := l.Stats(); st.Batches != 1 || st.Durable != 1 {
		t.Fatalf("after Close: %d batches, durable %d; want the pending record flushed", st.Batches, st.Durable)
	}
	if _, err := l.Begin(NewAdd(1, s(2))); !errors.Is(err, ErrClosed) {
		t.Fatalf("Begin on closed log: %v", err)
	}
	l2, recs, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 1 {
		t.Fatalf("reopen after Close: %d records, want 1", len(recs))
	}
}

// TestCommitIgnoresFlushInterval: the committer fsyncs as soon as a record
// wakes it, whatever the ignored Options say — a lone Append waits for one
// fsync, not for a timer.
func TestCommitIgnoresFlushInterval(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "wal.log"), 1, Options{FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() { done <- l.Append(NewAdd(0, s(1))) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a lone Append waited 10 s: the committer lingers before its fsync")
	}
	st := l.Stats()
	if st.Batches != 1 {
		t.Fatalf("batches = %d, want 1", st.Batches)
	}
	if got := st.FsyncHist.Count(); got != st.Fsyncs {
		t.Fatalf("fsync histogram holds %d observations for %d fsyncs", got, st.Fsyncs)
	}
}
