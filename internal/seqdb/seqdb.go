// Package seqdb implements the sequence database: an append-only heap file
// of variable-length sequences stored over the paged storage layer, with
// random access by sequence ID (used by the post-processing step of every
// search method) and a sequential scan (used by the Naive-Scan and LB-Scan
// baselines). Records may span page boundaries; the per-method disk cost is
// whatever the buffer pool observes.
package seqdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/fsx"
	"repro/internal/pagefile"
	"repro/internal/seq"
)

// Options configures a database.
type Options struct {
	// PageSize is the on-disk page size; 0 means pagefile.DefaultPageSize
	// (1 KB, the paper's setting).
	PageSize int
	// PoolPages is the buffer pool capacity in pages; 0 means 64.
	PoolPages int
	// WrapBackend, when non-nil, wraps the raw page backend before the
	// buffer pool is built on it. Fault-injection tests use it to fail
	// storage operations at chosen points.
	WrapBackend func(pagefile.Backend) pagefile.Backend
	// CacheBytes is accepted and ignored (cmd/bench sets it); goes with ROADMAP item 1(d).
	CacheBytes int64
}

func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = pagefile.DefaultPageSize
	}
	if o.PoolPages == 0 {
		o.PoolPages = 64
	}
	return o
}

// ErrNotFound is returned by Get for IDs that were never appended.
var ErrNotFound = errors.New("seqdb: sequence not found")

const (
	dirMagic   = 0x54574452 // "TWDR"
	dirVersion = 2
	dataFile   = "data.twp"
	dirFile    = "dir.bin"
)

// DB is a sequence heap file. It is safe for concurrent readers; Append
// requires external serialization with respect to other calls.
type DB struct {
	mu      sync.RWMutex
	pool    *pagefile.Pool
	dirPath string // empty for purely in-memory databases

	offsets []int64 // byte offset of record i in the logical stream
	// total is the logical stream length in bytes. Over a backend with a
	// positional run read, writeAt writes every page back the moment it
	// fills, which makes the page holding offset total — the one still
	// being appended to — a watermark: every page below it is identical on
	// the backend, so a record that ends below it is read with one
	// pool.ReadRun and no frame (recordLocked). total only moves under mu's
	// write half (AppendAll raises it after the write-backs, RollbackLast
	// lowers it before the space is rewritten), so a reader holding the read
	// half can trust the watermark it computes.
	total int64
	elems int64 // total number of elements across sequences

	tombstones map[seq.ID]bool // deleted IDs (see Delete)
	live       int             // number of non-deleted sequences
}

// NewMem creates an in-memory database. The buffer pool and page layout are
// identical to the on-disk form, so I/O accounting stays meaningful.
func NewMem(opts Options) (*DB, error) {
	opts = opts.withDefaults()
	var backend pagefile.Backend = pagefile.NewMemBackend(opts.PageSize)
	if opts.WrapBackend != nil {
		backend = opts.WrapBackend(backend)
	}
	pool, err := pagefile.NewPool(backend, opts.PageSize, opts.PoolPages)
	if err != nil {
		return nil, err
	}
	return &DB{pool: pool}, nil
}

// Create creates a new on-disk database inside directory dir (which is
// created if absent; existing database files are truncated).
func Create(dir string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fb, err := pagefile.CreateFile(filepath.Join(dir, dataFile), opts.PageSize)
	if err != nil {
		return nil, err
	}
	var backend pagefile.Backend = fb
	if opts.WrapBackend != nil {
		backend = opts.WrapBackend(backend)
	}
	pool, err := pagefile.NewPool(backend, opts.PageSize, opts.PoolPages)
	if err != nil {
		backend.Close()
		return nil, err
	}
	db := &DB{pool: pool, dirPath: filepath.Join(dir, dirFile)}
	if err := db.saveDirectory(); err != nil {
		pool.Close()
		return nil, err
	}
	return db, nil
}

// Open opens an existing on-disk database.
func Open(dir string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	fb, err := pagefile.OpenFile(filepath.Join(dir, dataFile))
	if err != nil {
		return nil, err
	}
	if fb.PageSize() != opts.PageSize {
		opts.PageSize = fb.PageSize()
	}
	var backend pagefile.Backend = fb
	if opts.WrapBackend != nil {
		backend = opts.WrapBackend(backend)
	}
	pool, err := pagefile.NewPool(backend, opts.PageSize, opts.PoolPages)
	if err != nil {
		backend.Close()
		return nil, err
	}
	db := &DB{pool: pool, dirPath: filepath.Join(dir, dirFile)}
	if err := db.loadDirectory(); err != nil {
		pool.Close()
		return nil, err
	}
	return db, nil
}

// Len returns the number of live (non-deleted) sequences.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.live
}

// TotalElements returns the total number of elements across all sequences.
func (db *DB) TotalElements() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.elems
}

// RecordLens calls fn with the element count of every live record, in ID
// order, from the directory alone: a record of n elements occupies
// seq.EncodedSize = 4 + 8n bytes of the stream, so no page is read.
func (db *DB) RecordLens(fn func(n int)) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for i, start := range db.offsets {
		if !db.tombstones[seq.ID(i)] {
			fn(int((db.endLocked(i) - start - 4) / 8))
		}
	}
}

// Bytes returns the logical size of the stored data in bytes.
func (db *DB) Bytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.total
}

// Stats returns the buffer pool counters for the data file.
func (db *DB) Stats() pagefile.Stats { return db.pool.Stats() }

// ResetStats zeroes the buffer pool counters (between experiment runs).
func (db *DB) ResetStats() { db.pool.ResetStats() }

// Append stores s and returns its ID: AppendAll of one record.
func (db *DB) Append(s seq.Sequence) (seq.ID, error) {
	return db.AppendAll([]seq.Sequence{s})
}

// AppendAll stores ss as one batch and returns the ID of the first; IDs are
// consecutive. Empty sequences are rejected before anything is written:
// their feature vector (and hence their index entry) is undefined. The
// batch is atomic: its records are written from the end of the stream, and
// only once all of its bytes are written are its directory entries, the
// stream length and the counters published, together. A failed write
// publishes nothing; the bytes it left lie at or above the watermark (see
// total), where the next append overwrites them.
func (db *DB) AppendAll(ss []seq.Sequence) (seq.ID, error) {
	if len(ss) == 0 {
		return seq.InvalidID, nil
	}
	for _, s := range ss {
		if s.Empty() {
			return seq.InvalidID, seq.ErrEmpty
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	end, elems := db.total, int64(0)
	var buf []byte // one record at a time: a batch's encoding is never held whole
	for _, s := range ss {
		buf = seq.Encode(buf[:0], s)
		if err := db.writeAt(end, buf); err != nil {
			return seq.InvalidID, err
		}
		end += int64(len(buf))
		elems += int64(len(s))
	}
	first := seq.ID(len(db.offsets))
	for _, s := range ss {
		db.offsets = append(db.offsets, db.total)
		db.total += int64(seq.EncodedSize(s))
	}
	db.elems += elems
	db.live += len(ss)
	return first, nil
}

// Scratch is the reusable memory of one fetching goroutine: the pages of
// the record last read and its decoded elements. Acquire one, pass it to
// every Fetch, Release it when done. Not safe for concurrent use.
type Scratch struct {
	raw  []byte
	vals seq.Sequence
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// AcquireScratch returns a pooled Scratch.
func AcquireScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release returns the Scratch (and its buffers) to the pool; sequences
// fetched into it must not be used afterwards.
func (sc *Scratch) Release() { scratchPool.Put(sc) }

// resize returns b with length n, reallocating only to grow.
func resize(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// Fetch reads the sequence with the given ID into sc and returns it. The
// result aliases sc: it is valid until the next Fetch with the same Scratch
// and must not be retained — the candidate fetch of a query, which hands the
// sequence to the lower bounds and the DP and keeps only a distance. An ID
// never appended is ErrNotFound, a deleted one ErrDeleted. Allocation-free
// once sc has grown. Every record leaves the heap through here.
func (db *DB) Fetch(id seq.ID, sc *Scratch) (seq.Sequence, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	start, end, err := db.extentLocked(id)
	if err != nil {
		return nil, err
	}
	return db.decodeLocked(start, end, sc)
}

// Get is Fetch into a pooled Scratch plus the one allocation that makes the
// result the caller's own.
func (db *DB) Get(id seq.ID) (seq.Sequence, error) {
	sc := AcquireScratch()
	defer sc.Release()
	s, err := db.Fetch(id, sc)
	if err != nil {
		return nil, err
	}
	return s.Clone(), nil
}

// extentLocked returns the byte range record id occupies in the logical
// stream, or ErrNotFound / ErrDeleted. Caller holds db.mu.
func (db *DB) extentLocked(id seq.ID) (start, end int64, err error) {
	if int(id) >= len(db.offsets) {
		return 0, 0, fmt.Errorf("%w: id %d of %d", ErrNotFound, id, len(db.offsets))
	}
	if db.tombstones[id] {
		return 0, 0, fmt.Errorf("%w: id %d", ErrDeleted, id)
	}
	return db.offsets[id], db.endLocked(int(id)), nil
}

// endLocked returns where record i ends: the next record's offset, or the
// end of the stream for the newest. Caller holds db.mu.
func (db *DB) endLocked(i int) int64 {
	if i+1 < len(db.offsets) {
		return db.offsets[i+1]
	}
	return db.total
}

// decodeLocked reads the record at [start, end) and decodes it into sc.
// Caller holds db.mu.
func (db *DB) decodeLocked(start, end int64, sc *Scratch) (seq.Sequence, error) {
	rec, err := db.recordLocked(start, end, sc)
	if err != nil {
		return nil, err
	}
	s, _, err := seq.DecodeInto(sc.vals, rec)
	if err != nil {
		return nil, err
	}
	sc.vals = s
	return s, nil
}

// recordLocked reads the encoded record at [start, end) into sc and returns
// its bytes (aliasing sc). A record that ends below the watermark is one
// positional read of the pages it covers, the payloads then closed up over
// the CRC trailers between them; one that touches the page still being
// appended to, or any record of a backend without a run read, is copied out
// of pool frames. Caller holds db.mu.
func (db *DB) recordLocked(start, end int64, sc *Scratch) ([]byte, error) {
	size := int(end - start)
	payload := int64(db.pool.PayloadSize())
	first, last := start/payload, (end-1)/payload
	if !db.pool.CanReadRun() || last >= db.total/payload {
		sc.raw = resize(sc.raw, size)
		return sc.raw, db.readAt(start, sc.raw)
	}
	pageSize, n := db.pool.PageSize(), int(last-first)+1
	sc.raw = resize(sc.raw, n*pageSize)
	raw := sc.raw
	if err := db.pool.ReadRun(pagefile.PageID(first), n, raw); err != nil {
		return nil, err
	}
	w := int(payload)
	for p := 1; p < n; p++ {
		w += copy(raw[w:], raw[p*pageSize:p*pageSize+int(payload)])
	}
	in := int(start % payload)
	return raw[in : in+size], nil
}

// Scan calls fn for every stored sequence in ID order, reading pages
// sequentially through the buffer pool. fn returning an error stops the scan
// and propagates the error.
func (db *DB) Scan(fn func(id seq.ID, s seq.Sequence) error) error {
	return db.scan(false, func(id seq.ID, s seq.Sequence, _ bool) error { return fn(id, s) })
}

// ScanAll calls fn for every record slot in ID order, including
// tombstoned ones — the full dense ID space a replica must mirror for its
// IDs to line up with the primary's. Tombstoned records whose bytes no
// longer decode (best-effort rollback leftovers) are reported with a nil
// sequence rather than an error.
func (db *DB) ScanAll(fn func(id seq.ID, s seq.Sequence, deleted bool) error) error {
	return db.scan(true, fn)
}

// scan is the one sequential pass over the heap: a cursor keeps the current
// page pinned, so every page is fetched from the pool once however many
// records share it. Tombstoned records are skipped unread unless
// withDeleted. fn owns each decoded sequence.
func (db *DB) scan(withDeleted bool, fn func(id seq.ID, s seq.Sequence, deleted bool) error) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	payload := int64(db.pool.PayloadSize())
	var cur *pagefile.Page
	curIdx := int64(-1)
	defer func() {
		if cur != nil {
			cur.Unpin()
		}
	}()
	var buf []byte // one for the scan
	for i, start := range db.offsets {
		deleted := db.tombstones[seq.ID(i)]
		if deleted && !withDeleted {
			continue
		}
		buf = resize(buf, int(db.endLocked(i)-start))
		for off, dst := start, buf; len(dst) > 0; {
			if idx := off / payload; idx != curIdx {
				if cur != nil {
					cur.Unpin()
					cur = nil
				}
				p, err := db.pool.Fetch(pagefile.PageID(idx))
				if err != nil {
					return err
				}
				cur, curIdx = p, idx
			}
			n := copy(dst, cur.Payload()[off%payload:])
			dst = dst[n:]
			off += int64(n)
		}
		s, _, err := seq.Decode(buf)
		if err != nil {
			if !deleted {
				return fmt.Errorf("seqdb: record %d: %w", i, err)
			}
			s = nil
		}
		if err := fn(seq.ID(i), s, deleted); err != nil {
			return err
		}
	}
	return nil
}

// writeAt writes buf at logical offset off, allocating pages as needed.
// Caller holds db.mu.
func (db *DB) writeAt(off int64, buf []byte) error {
	payload := int64(db.pool.PayloadSize())
	for len(buf) > 0 {
		idx := off / payload
		in := off % payload
		for int64(db.pool.NumPages()) <= idx {
			p, err := db.pool.Alloc()
			if err != nil {
				return err
			}
			p.Unpin()
		}
		p, err := db.pool.Fetch(pagefile.PageID(idx))
		if err != nil {
			return err
		}
		n := copy(p.Payload()[in:], buf)
		p.MarkDirty()
		if db.pool.CanReadRun() && in+int64(n) == payload {
			err = p.Flush() // full: from here on it is read from the backend
		}
		p.Unpin()
		if err != nil {
			return err
		}
		buf = buf[n:]
		off += int64(n)
	}
	return nil
}

// readAt fills buf from logical offset off through pool frames, one fetch a
// page: recordLocked's path for the newest record and for backends without
// a run read. Caller holds db.mu (read).
func (db *DB) readAt(off int64, buf []byte) error {
	payload := int64(db.pool.PayloadSize())
	for len(buf) > 0 {
		idx := off / payload
		in := off % payload
		p, err := db.pool.Fetch(pagefile.PageID(idx))
		if err != nil {
			return err
		}
		n := copy(buf, p.Payload()[in:])
		p.Unpin()
		buf = buf[n:]
		off += int64(n)
	}
	return nil
}

// Flush persists data pages and the directory (no-op for memory databases'
// directory). On file-backed databases the data file is fsynced before the
// directory is swapped in, so a manifest that names an offset always has
// durable bytes behind it.
func (db *DB) Flush() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	if err := db.pool.Sync(); err != nil {
		return err
	}
	return db.saveDirectory()
}

// Close flushes and releases the database.
func (db *DB) Close() error {
	if err := db.Flush(); err != nil {
		db.pool.Close()
		return err
	}
	return db.pool.Close()
}

// saveDirectory writes the offset directory. Caller must not hold db.mu for
// writing concurrently. No-op when the database is in-memory.
func (db *DB) saveDirectory() error {
	if db.dirPath == "" {
		return nil
	}
	buf := make([]byte, 0, 24+8*len(db.offsets))
	buf = binary.LittleEndian.AppendUint32(buf, dirMagic)
	buf = binary.LittleEndian.AppendUint32(buf, dirVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(db.offsets)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(db.elems))
	for _, off := range db.offsets {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(off))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(db.total))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(db.tombstones)))
	for id := range db.tombstones {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	// WriteFileSync fsyncs the temp file before the rename and the parent
	// directory after it: the manifest swap used to be atomic but not
	// durable — a power failure right after Flush could roll the rename
	// back (or leave a zero-length manifest), silently dropping appends
	// the caller was told were persisted.
	return fsx.WriteFileSync(db.dirPath, buf, 0o644)
}

// minRecord is the encoding of the shortest sequence Append accepts: the
// element count and one element.
const minRecord = 4 + 8

// loadDirectory reads the directory and refuses one the heap cannot have
// written. The file carries no checksum, and everything a read computes — a
// record's extent, the pages it covers, the size of its buffer — comes from
// two neighbouring offsets, so what is checked here is what keeps a damaged
// directory from becoming an out-of-range make or a read past the data file.
func (db *DB) loadDirectory() error {
	raw, err := os.ReadFile(db.dirPath)
	if err != nil {
		return err
	}
	if len(raw) < 24 {
		return errors.New("seqdb: directory file truncated")
	}
	if binary.LittleEndian.Uint32(raw[0:]) != dirMagic {
		return errors.New("seqdb: bad directory magic")
	}
	if v := binary.LittleEndian.Uint32(raw[4:]); v != dirVersion {
		return fmt.Errorf("seqdb: unsupported directory version %d", v)
	}
	count := binary.LittleEndian.Uint64(raw[8:])
	if count > uint64(len(raw)-24)/8 || len(raw) < 24+8*int(count)+8+4 {
		return errors.New("seqdb: directory file truncated")
	}
	n := int(count)
	offsets := make([]int64, n+1) // the stream's end closes the last record
	for i := range offsets {
		offsets[i] = int64(binary.LittleEndian.Uint64(raw[24+8*i:]))
	}
	off := 24 + 8*(n+1)
	total := offsets[n]
	if capacity := int64(db.pool.NumPages()) * int64(db.pool.PayloadSize()); total < 0 || total > capacity {
		return fmt.Errorf("seqdb: directory damaged: %d bytes recorded, the data file holds at most %d", total, capacity)
	}
	for i := 0; i < n; i++ {
		// A negative offset is refused before its difference is taken:
		// between two nonnegative int64s the subtraction cannot overflow.
		if offsets[i] < 0 {
			return fmt.Errorf("seqdb: directory damaged: record %d at offset %d", i, offsets[i])
		}
		if offsets[i+1]-offsets[i] < minRecord {
			return fmt.Errorf("seqdb: directory damaged: record %d spans offsets %d..%d", i, offsets[i], offsets[i+1])
		}
	}
	elems := int64(binary.LittleEndian.Uint64(raw[16:]))
	if n > 0 && total-offsets[0] != 4*int64(n)+8*elems {
		return fmt.Errorf("seqdb: directory damaged: %d elements recorded for %d records in %d bytes", elems, n, total-offsets[0])
	}
	nt := int(binary.LittleEndian.Uint32(raw[off:]))
	off += 4
	if len(raw) < off+4*nt {
		return errors.New("seqdb: directory tombstone section truncated")
	}
	var tombstones map[seq.ID]bool
	if nt > 0 {
		tombstones = make(map[seq.ID]bool, nt)
		for i := 0; i < nt; i++ {
			id := seq.ID(binary.LittleEndian.Uint32(raw[off+4*i:]))
			if int(id) >= n || tombstones[id] {
				return fmt.Errorf("seqdb: directory damaged: tombstone %d of %d records (out of range or repeated)", id, n)
			}
			tombstones[id] = true
		}
	}
	db.offsets, db.total, db.elems = offsets[:n], total, elems
	db.tombstones, db.live = tombstones, n-nt
	return nil
}
