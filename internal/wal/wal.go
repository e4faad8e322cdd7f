// Package wal implements the group-commit write-ahead log that sits in
// front of the sequence heap. Writers enqueue typed records (add /
// add-batch / remove) into an in-memory batch and block only until the
// fsync covering their record completes. A single committer goroutine
// writes and fsyncs the batch as soon as a record wakes it; records that
// arrive while that fsync is in flight form the next batch. Group commit
// is therefore self-clocked: a lone writer waits for one fsync, and under
// load a batch is every writer that arrived during the previous fsync, so
// batches grow with fsync latency without a timer to tune. Open scans the
// log, truncates a torn tail at the first invalid record, and hands the
// valid prefix back for replay; Checkpoint (taken after the heap is
// durable by other means) resets the log to an empty
// file with a higher base sequence number. Sequence numbers are dense,
// monotone across checkpoints, and never reused — they double as the
// replication cursor.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fsx"
	"repro/internal/obs"
)

const (
	fileMagic   = 0x4C415754 // "TWAL"
	fileVersion = 1
	headerLen   = 16
)

// ErrClosed is returned by appends against a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrCompacted is returned by TailSince when the requested position
// precedes the log's base — a checkpoint discarded it, and the caller
// (a replica) must re-bootstrap from a snapshot instead.
var ErrCompacted = errors.New("wal: position compacted away by checkpoint")

// Options is accepted and ignored: the committer has nothing to tune. The
// type remains so callers that still set FlushInterval compile.
type Options struct {
	FlushInterval time.Duration
}

// Stats are the log's cumulative counters. Fsyncs / Records is the
// group-commit batching factor the bench harness fences on.
type Stats struct {
	Records     int64 // records appended
	Batches     int64 // group flushes (one fsync each)
	Fsyncs      int64 // total fsyncs, including checkpoint resets
	Bytes       int64 // record bytes written
	Checkpoints int64
	Seq         uint64 // highest assigned sequence number (0 = none)
	Durable     uint64 // highest sequence number covered by an fsync
	Base        uint64 // first sequence number still in the file
	FileBytes   int64  // current log file size including pending bytes
	// FsyncHist times every fsync Fsyncs counts (its Count equals
	// Fsyncs); it feeds the twsim_wal_fsync_seconds series.
	FsyncHist obs.HistogramData
}

// Add accumulates counters (for summing per-shard logs).
func (s *Stats) Add(o Stats) {
	s.Records += o.Records
	s.Batches += o.Batches
	s.Fsyncs += o.Fsyncs
	s.Bytes += o.Bytes
	s.Checkpoints += o.Checkpoints
	s.FileBytes += o.FileBytes
	s.FsyncHist.Add(o.FsyncHist)
	if o.Seq > s.Seq {
		s.Seq = o.Seq
	}
	if o.Durable > s.Durable {
		s.Durable = o.Durable
	}
	if o.Base > s.Base {
		s.Base = o.Base
	}
}

// Commit blocks until the fsync covering the records it was returned for
// has completed (or returns the flush error). It may be called at most
// once from any goroutine, and crucially may be called after the caller
// has released whatever lock serialized the append — that window is what
// lets other writers join the same batch.
type Commit func() error

// Log is a single-file group-commit WAL. Append order must match apply
// order (callers serialize mutations externally, as the heap already
// requires); the log itself is safe for concurrent use.
type Log struct {
	path string

	// io serializes file writes: the committer's flush, checkpoint
	// resets, and tail reads never interleave.
	io sync.Mutex

	mu   sync.Mutex
	cond *sync.Cond
	f    *os.File

	base    uint64 // seq of the first record in the file
	seq     uint64 // next seq to assign
	durable uint64 // highest fsynced seq
	err     error  // sticky flush/checkpoint error
	closed  bool
	buf     []byte  // pending serialized records
	spare   []byte  // recycled flush buffer
	offs    []int64 // file offset of record base+i
	endOff  int64   // file offset past the last enqueued record
	durOff  int64   // file offset past the last durable record

	stats     Stats
	fsyncHist obs.Histogram // observed under mu beside stats.Fsyncs

	wake chan struct{}
	quit chan struct{}
	done chan struct{}

	// beforeFlush, when set (tests only), runs on the committer before
	// each flush takes the pending batch, so a test can hold the fsync.
	beforeFlush func()
}

func encodeHeader(base uint64) []byte {
	h := make([]byte, headerLen)
	binary.LittleEndian.PutUint32(h[0:], fileMagic)
	binary.LittleEndian.PutUint32(h[4:], fileVersion)
	binary.LittleEndian.PutUint64(h[8:], base)
	return h
}

func newLog(path string, f *os.File, base uint64) *Log {
	l := &Log{
		path:    path,
		f:       f,
		base:    base,
		seq:     base,
		durable: base - 1,
		endOff:  headerLen,
		durOff:  headerLen,
		wake:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	go l.run()
	return l
}

// Create starts a fresh log at path (truncating any previous file) with
// the given base sequence number, fsyncing the file and its directory so
// the empty log itself survives a crash. The Options are ignored.
func Create(path string, base uint64, _ Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(encodeHeader(base)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := fsx.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return newLog(path, f, base), nil
}

// Open opens (or creates) the log at path, scans it, truncates any torn
// or corrupt tail, and returns the valid records for replay. note is a
// human-readable description of a truncation ("" when the file was
// clean); an unreadable header is an error — the file is not a WAL.
func Open(path string) (l *Log, recs []Record, note string, err error) {
	raw, rerr := os.ReadFile(path)
	if rerr != nil {
		if os.IsNotExist(rerr) {
			l, err = Create(path, 1, Options{})
			return l, nil, "", err
		}
		return nil, nil, "", rerr
	}
	if len(raw) < headerLen {
		return nil, nil, "", fmt.Errorf("wal: %s: short header (%d bytes)", path, len(raw))
	}
	if binary.LittleEndian.Uint32(raw[0:]) != fileMagic {
		return nil, nil, "", fmt.Errorf("wal: %s: bad magic", path)
	}
	if v := binary.LittleEndian.Uint32(raw[4:]); v != fileVersion {
		return nil, nil, "", fmt.Errorf("wal: %s: unsupported version %d", path, v)
	}
	base := binary.LittleEndian.Uint64(raw[8:])
	if base == 0 {
		return nil, nil, "", fmt.Errorf("wal: %s: zero base sequence", path)
	}

	body := raw[headerLen:]
	var offs []int64
	n := 0
	next := base
	var scanErr error
	for n < len(body) {
		r, used, perr := parseRecord(body[n:])
		if perr == nil && r.Seq != next {
			perr = fmt.Errorf("%w: sequence gap (got %d want %d)", ErrCorrupt, r.Seq, next)
		}
		if perr != nil {
			scanErr = perr
			break
		}
		offs = append(offs, int64(headerLen+n))
		recs = append(recs, r)
		next++
		n += used
	}

	f, ferr := os.OpenFile(path, os.O_RDWR, 0o644)
	if ferr != nil {
		return nil, nil, "", ferr
	}
	valid := int64(headerLen + n)
	if scanErr != nil {
		dropped := int64(len(raw)) - valid
		note = fmt.Sprintf("wal: truncated %d torn/corrupt tail bytes after record %d (%v)", dropped, next-1, scanErr)
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, "", err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, "", err
		}
	}
	l = newLog(path, f, base)
	l.seq = next
	l.durable = next - 1
	l.offs = offs
	l.endOff = valid
	l.durOff = valid
	return l, recs, note, nil
}

// Begin serializes recs into the pending batch, assigning them dense
// sequence numbers, and returns a Commit that blocks until they are
// fsynced. The records become durable in the background even if Commit
// is never invoked. Callers must serialize Begin with the corresponding
// state mutation so log order equals apply order.
func (l *Log) Begin(recs ...Record) (Commit, error) {
	if len(recs) == 0 {
		return func() error { return nil }, nil
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return nil, err
	}
	for i := range recs {
		recs[i].Seq = l.seq
		l.seq++
		l.offs = append(l.offs, l.endOff)
		before := len(l.buf)
		l.buf = AppendRecord(l.buf, &recs[i])
		l.endOff += int64(len(l.buf) - before)
	}
	l.stats.Records += int64(len(recs))
	top := l.seq - 1
	l.mu.Unlock()

	select {
	case l.wake <- struct{}{}:
	default:
	}
	return func() error { return l.waitDurable(top) }, nil
}

// Append is Begin plus an immediate wait: the caller blocks until the
// fsync covering recs completes.
func (l *Log) Append(recs ...Record) error {
	commit, err := l.Begin(recs...)
	if err != nil {
		return err
	}
	return commit()
}

func (l *Log) waitDurable(s uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durable < s && l.err == nil {
		l.cond.Wait()
	}
	if l.durable >= s {
		return nil
	}
	return l.err
}

// run is the committer: it sleeps until a record arrives, then writes and
// fsyncs everything pending at once. Writers that Begin during that fsync
// leave a wake token behind, so the next batch starts the moment this one
// is durable; waiting before the fsync would only add latency, since the
// fsync itself is the window in which the next batch gathers.
func (l *Log) run() {
	defer close(l.done)
	for {
		select {
		case <-l.wake:
			l.flush()
		case <-l.quit:
			l.flush()
			return
		}
	}
}

// timedSync fsyncs the file and reports how long the call took.
func (l *Log) timedSync() (time.Duration, error) {
	start := time.Now()
	err := l.f.Sync()
	return time.Since(start), err
}

func (l *Log) flush() {
	if l.beforeFlush != nil {
		l.beforeFlush()
	}
	l.io.Lock()
	defer l.io.Unlock()
	l.mu.Lock()
	if l.err != nil || len(l.buf) == 0 {
		l.cond.Broadcast()
		l.mu.Unlock()
		return
	}
	buf := l.buf
	l.buf = l.spare[:0]
	top := l.seq - 1
	off := l.durOff
	l.mu.Unlock()

	var took time.Duration
	_, werr := l.f.WriteAt(buf, off)
	if werr == nil {
		took, werr = l.timedSync()
	}

	l.mu.Lock()
	l.spare = buf[:0]
	if werr != nil {
		if l.err == nil {
			l.err = werr
		}
	} else {
		l.durable = top
		l.durOff = off + int64(len(buf))
		l.stats.Fsyncs++
		l.fsyncHist.Observe(took)
		l.stats.Batches++
		l.stats.Bytes += int64(len(buf))
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Checkpoint resets the log to an empty file whose base is the next
// unassigned sequence number. The caller must have made every applied
// mutation durable by other means first (heap pages fsynced, manifest
// renamed and dir-synced): pending un-fsynced records are simply dropped
// — their effects are already durable — and their waiters are released.
func (l *Log) Checkpoint() error {
	l.io.Lock()
	defer l.io.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	base := l.seq
	var err error
	if terr := l.f.Truncate(headerLen); terr != nil {
		err = terr
	}
	if err == nil {
		_, err = l.f.WriteAt(encodeHeader(base), 0)
	}
	if err == nil {
		var took time.Duration
		took, err = l.timedSync()
		l.stats.Fsyncs++
		l.fsyncHist.Observe(took)
	}
	if err != nil {
		l.err = err
		l.cond.Broadcast()
		return err
	}
	l.base = base
	l.durable = base - 1
	l.buf = l.buf[:0]
	l.offs = l.offs[:0]
	l.endOff = headerLen
	l.durOff = headerLen
	l.stats.Checkpoints++
	l.cond.Broadcast()
	return nil
}

// TailSince returns the serialized durable records with sequence numbers
// > from, capped near maxBytes on a record boundary (at least one record
// is returned when any is available). last is the sequence number of the
// final record in data (== from when data is empty). ErrCompacted means
// from precedes the file's base and the caller must re-bootstrap.
func (l *Log) TailSince(from uint64, maxBytes int) (data []byte, last uint64, err error) {
	l.io.Lock()
	defer l.io.Unlock()
	l.mu.Lock()
	if from+1 < l.base {
		l.mu.Unlock()
		return nil, from, ErrCompacted
	}
	durableCount := int(l.durable + 1 - l.base)
	idx := int(from + 1 - l.base)
	if idx >= durableCount {
		l.mu.Unlock()
		return nil, from, nil
	}
	endOf := func(i int) int64 {
		if i+1 < len(l.offs) {
			return l.offs[i+1]
		}
		return l.endOff
	}
	startOff := l.offs[idx]
	stopIdx := idx
	stopOff := endOf(idx)
	for k := idx + 1; k < durableCount; k++ {
		e := endOf(k)
		if e-startOff > int64(maxBytes) {
			break
		}
		stopIdx, stopOff = k, e
	}
	base := l.base
	l.mu.Unlock()

	data = make([]byte, stopOff-startOff)
	if _, err := l.f.ReadAt(data, startOff); err != nil {
		return nil, from, err
	}
	return data, base + uint64(stopIdx), nil
}

// Base returns the first sequence number still present in the file.
func (l *Log) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// LastSeq returns the highest assigned sequence number (0 when the log
// has never seen a record).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq - 1
}

// FileBytes returns the log file size including not-yet-flushed bytes —
// the auto-checkpoint trigger reads it on every write.
func (l *Log) FileBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.endOff
}

// Stats snapshots the counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.FsyncHist = l.fsyncHist.Data()
	s.Seq = l.seq - 1
	s.Durable = l.durable
	s.Base = l.base
	s.FileBytes = l.endOff
	return s
}

// Close flushes any pending batch, stops the committer, and closes the
// file. Records appended before Close are durable when it returns nil.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.quit)
	<-l.done
	l.mu.Lock()
	err := l.err
	l.mu.Unlock()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
