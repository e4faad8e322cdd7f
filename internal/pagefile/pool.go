package pagefile

import (
	"container/list"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
)

// Stats accumulates buffer pool activity. Reads counts logical page
// fetches; Misses the subset that had to go to the backend; SeqMisses the
// subset of misses whose page immediately follows the previously missed
// page (a sequential read, which disk cost models charge at transfer
// rather than seek cost); Writes the physical write-backs.
// Hit ratio = 1 - Misses/Reads.
type Stats struct {
	Reads     int64
	Misses    int64
	SeqMisses int64
	Writes    int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.Misses += other.Misses
	s.SeqMisses += other.SeqMisses
	s.Writes += other.Writes
}

// HitRatio returns the fraction of logical reads served from the pool
// (1 - Misses/Reads), or 0 before any read has happened.
func (s Stats) HitRatio() float64 {
	if s.Reads == 0 {
		return 0
	}
	return 1 - float64(s.Misses)/float64(s.Reads)
}

// Page is a pinned buffer frame. The caller must Unpin it when done; dirty
// pages must be marked via MarkDirty before Unpin or the mutation may be
// lost on eviction.
type Page struct {
	id    PageID
	frame *frame
	pool  *Pool
}

// ID returns the page's identifier.
func (p *Page) ID() PageID { return p.id }

// Payload returns the caller-usable bytes of the page (the page minus the
// CRC trailer). The slice aliases the buffer frame and is only valid while
// the page is pinned.
func (p *Page) Payload() []byte { return p.frame.buf[:len(p.frame.buf)-crcLen] }

// MarkDirty records that the payload was mutated so the frame is written
// back before eviction.
func (p *Page) MarkDirty() { p.frame.dirty = true }

// Flush writes the page back now if it is dirty, leaving it pinned and
// clean. The heap calls it on a page it has just filled, so that every page
// below the one still being appended to is identical on the backend.
func (p *Page) Flush() error {
	st := p.pool.stripeOf(p.id)
	st.mu.Lock()
	defer st.mu.Unlock()
	return p.pool.flushLocked(p.frame)
}

// Unpin releases the caller's pin. The Page must not be used afterwards.
func (p *Page) Unpin() { p.pool.unpin(p.frame) }

type frame struct {
	id    PageID
	buf   []byte
	pins  int
	dirty bool
	elem  *list.Element // position in the stripe's LRU list when unpinned
}

// stripe is one lock-striped partition of the pool: it owns the frames of
// the pages hashed to it, with its own LRU list, mutex, and frame budget,
// so fetches of pages in different stripes never contend.
type stripe struct {
	mu       sync.Mutex
	frames   map[PageID]*frame
	lru      *list.List // front = most recently used; holds only unpinned frames
	capacity int
	_        [32]byte // pad to a cache line so stripe locks don't false-share
}

const (
	// minStripeCapacity is the smallest frame budget a stripe may have.
	// Multi-page operations (an R-tree split holds a parent and two fresh
	// children pinned) must fit in one stripe even when every page they
	// touch hashes to the same stripe, so this stays comfortably above the
	// pool-wide minimum of 4.
	minStripeCapacity = 8
	// maxStripes bounds the stripe count; beyond ~16 ways the residual
	// contention is dwarfed by the backend I/O itself.
	maxStripes = 16
)

// stripeCount picks the largest power-of-two stripe count (≤ maxStripes)
// that still leaves every stripe at least minStripeCapacity frames. A
// 4-page pool therefore degenerates to a single stripe, which behaves
// exactly like the historical single-mutex pool.
func stripeCount(capacity int) int {
	n := 1
	for n*2 <= capacity/minStripeCapacity && n*2 <= maxStripes {
		n *= 2
	}
	return n
}

// Pool is an LRU buffer pool over a Backend. All methods are safe for
// concurrent use.
//
// What the pool does not guard is a page's contents: the payload bytes and
// the dirty flag are written without a lock (Payload, MarkDirty) and read
// by write-back (eviction, FlushAll). Callers that mutate pages, or flush,
// must exclude every other user of the pool while they do — the database's
// concurrent-readers / exclusive-writer contract. Fetches, pins, evictions
// with their dirty write-backs, and Stats may all run concurrently.
//
// The pool is lock-striped: pages hash to one of NumStripes independent
// partitions (stripe = id mod NumStripes, so a sequential scan round-robins
// across stripes), each with its own mutex, frame map, LRU list, and frame
// budget. Pin, unpin, and eviction all take only the owning stripe's lock;
// the activity counters are atomics, so Stats never blocks queries.
type Pool struct {
	backend  Backend
	runs     RunReader // backend's positional run read; nil when it has none
	pageSize int
	capacity int

	stripes []stripe
	mask    uint32 // len(stripes)-1; stripe counts are powers of two

	// Activity counters. Kept as atomics so the hot path never serializes
	// on accounting and Stats() is wait-free.
	reads     atomic.Int64
	misses    atomic.Int64
	seqMisses atomic.Int64
	writes    atomic.Int64
	// lastMiss is the previously missed page, for sequential-read
	// detection. A single pool-wide register (not per-stripe state) so a
	// serial sequential scan is detected exactly even though consecutive
	// pages hash to different stripes.
	lastMiss atomic.Uint32
}

// NewPool creates a buffer pool with room for capacity pages of the given
// page size over backend. Capacity must be at least 4 so multi-page
// operations (e.g. an R-tree split touching parent and two children) can
// hold their working set pinned.
func NewPool(backend Backend, pageSize, capacity int) (*Pool, error) {
	if capacity < 4 {
		return nil, fmt.Errorf("pagefile: pool capacity %d < 4", capacity)
	}
	if pageSize <= crcLen+8 {
		return nil, fmt.Errorf("pagefile: page size %d too small", pageSize)
	}
	n := stripeCount(capacity)
	runs, _ := backend.(RunReader)
	p := &Pool{
		backend:  backend,
		runs:     runs,
		pageSize: pageSize,
		capacity: capacity,
		stripes:  make([]stripe, n),
		mask:     uint32(n - 1),
	}
	base, extra := capacity/n, capacity%n
	for i := range p.stripes {
		st := &p.stripes[i]
		st.capacity = base
		if i < extra {
			st.capacity++
		}
		st.frames = make(map[PageID]*frame, st.capacity)
		st.lru = list.New()
	}
	p.lastMiss.Store(uint32(InvalidPage))
	return p, nil
}

// PageSize returns the configured page size.
func (p *Pool) PageSize() int { return p.pageSize }

// PayloadSize returns the number of caller-usable bytes per page.
func (p *Pool) PayloadSize() int { return p.pageSize - crcLen }

// NumStripes returns the number of lock stripes the pool was built with.
func (p *Pool) NumStripes() int { return len(p.stripes) }

func (p *Pool) stripeOf(id PageID) *stripe { return &p.stripes[uint32(id)&p.mask] }

// Stats returns a snapshot of the accumulated counters. The snapshot is
// wait-free — it takes no locks and never blocks (or is blocked by)
// concurrent fetches — and therefore only weakly consistent: each counter
// is read atomically, but the four reads are not a single atomic cut, so a
// fetch racing the snapshot may appear in Reads and not yet in Misses.
// Counters are monotone, so successive snapshots never go backwards.
func (p *Pool) Stats() Stats {
	return Stats{
		Reads:     p.reads.Load(),
		Misses:    p.misses.Load(),
		SeqMisses: p.seqMisses.Load(),
		Writes:    p.writes.Load(),
	}
}

// ResetStats zeroes the counters (used between experiment runs).
func (p *Pool) ResetStats() {
	p.reads.Store(0)
	p.misses.Store(0)
	p.seqMisses.Store(0)
	p.writes.Store(0)
}

// NumPages returns the number of allocated pages in the backing store.
func (p *Pool) NumPages() int { return p.backend.NumPages() }

// Alloc allocates a fresh page and returns it pinned with a zero payload.
func (p *Pool) Alloc() (*Page, error) {
	id, err := p.backend.Alloc()
	if err != nil {
		return nil, err
	}
	st := p.stripeOf(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	f, err := p.installLocked(st, id)
	if err != nil {
		return nil, err
	}
	for i := range f.buf {
		f.buf[i] = 0
	}
	f.dirty = true
	return &Page{id: id, frame: f, pool: p}, nil
}

// Fetch pins page id, reading it from the backend on a miss. Fetches of
// pages in different stripes proceed fully in parallel; a miss blocks only
// its own stripe while the backend read is in flight.
func (p *Pool) Fetch(id PageID) (*Page, error) {
	st := p.stripeOf(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	p.reads.Add(1)
	if f, ok := st.frames[id]; ok {
		f.pins++
		if f.elem != nil {
			st.lru.Remove(f.elem)
			f.elem = nil
		}
		return &Page{id: id, frame: f, pool: p}, nil
	}
	p.misses.Add(1)
	if prev := PageID(p.lastMiss.Swap(uint32(id))); prev != InvalidPage && id == prev+1 {
		p.seqMisses.Add(1)
	}
	f, err := p.installLocked(st, id)
	if err != nil {
		return nil, err
	}
	if err := p.backend.ReadPage(id, f.buf); err != nil {
		delete(st.frames, f.id)
		return nil, err
	}
	if err := verifyCRC(f.buf); err != nil {
		delete(st.frames, f.id)
		return nil, fmt.Errorf("%w (page %d)", err, id)
	}
	return &Page{id: id, frame: f, pool: p}, nil
}

// CanReadRun reports whether ReadRun is available: the backend offers a
// positional read of consecutive pages.
func (p *Pool) CanReadRun() bool { return p.runs != nil }

// ReadRun reads pages first … first+n-1 straight from the backend into buf
// (n × PageSize bytes, the pages as stored, CRC trailers included) with one
// positional read, touching no frame and no stripe lock. Every page's CRC is
// verified as Fetch verifies a miss, and the run is counted as Fetch would
// have counted it on a cold pool: n reads, n misses, the pages after the
// first sequential. The caller must know that no page of the run is dirty in
// the pool — the backend copy is the only one consulted.
func (p *Pool) ReadRun(first PageID, n int, buf []byte) error {
	p.reads.Add(int64(n))
	p.misses.Add(int64(n))
	seqMisses := int64(n - 1)
	if prev := PageID(p.lastMiss.Swap(uint32(first) + uint32(n-1))); prev != InvalidPage && first == prev+1 {
		seqMisses++
	}
	p.seqMisses.Add(seqMisses)
	if err := p.runs.ReadRun(first, n, buf); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := verifyCRC(buf[i*p.pageSize : (i+1)*p.pageSize]); err != nil {
			return fmt.Errorf("%w (page %d)", err, int(first)+i)
		}
	}
	return nil
}

// installLocked obtains a frame for id within stripe st (evicting the
// stripe's LRU victim if the stripe is at its budget) and registers it
// pinned once. Caller holds st.mu.
func (p *Pool) installLocked(st *stripe, id PageID) (*frame, error) {
	var buf []byte
	if len(st.frames) >= st.capacity {
		victim := st.lru.Back()
		if victim == nil {
			return nil, fmt.Errorf("pagefile: buffer pool stripe exhausted (%d of %d pages, all pinned)",
				st.capacity, p.capacity)
		}
		vf := victim.Value.(*frame)
		if err := p.flushLocked(vf); err != nil {
			return nil, err
		}
		st.lru.Remove(victim)
		delete(st.frames, vf.id)
		buf = vf.buf
	} else {
		buf = make([]byte, p.pageSize)
	}
	f := &frame{id: id, buf: buf, pins: 1}
	st.frames[id] = f
	return f, nil
}

func (p *Pool) unpin(f *frame) {
	st := p.stripeOf(f.id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if f.pins <= 0 {
		panic("pagefile: unpin of unpinned page")
	}
	f.pins--
	if f.pins == 0 {
		f.elem = st.lru.PushFront(f)
	}
}

// flushLocked writes a dirty frame back through the backend. Caller holds
// the owning stripe's mutex.
func (p *Pool) flushLocked(f *frame) error {
	if !f.dirty {
		return nil
	}
	stampCRC(f.buf)
	if err := p.backend.WritePage(f.id, f.buf); err != nil {
		return err
	}
	f.dirty = false
	p.writes.Add(1)
	return nil
}

// FlushAll writes back every dirty frame (pinned or not) without evicting,
// visiting the stripes one at a time so concurrent fetches in other stripes
// keep flowing.
func (p *Pool) FlushAll() error {
	for i := range p.stripes {
		st := &p.stripes[i]
		st.mu.Lock()
		for _, f := range st.frames {
			if err := p.flushLocked(f); err != nil {
				st.mu.Unlock()
				return err
			}
		}
		st.mu.Unlock()
	}
	return nil
}

// Sync asks the backend to push previously-written pages to stable
// storage (fsync for file backends; a no-op for memory backends and for
// wrappers that don't expose one). FlushAll alone only hands dirty frames
// to the OS — Sync is what makes them survive a power failure.
func (p *Pool) Sync() error {
	if s, ok := p.backend.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

// Close flushes all dirty pages and closes the backend.
func (p *Pool) Close() error {
	if err := p.FlushAll(); err != nil {
		p.backend.Close()
		return err
	}
	return p.backend.Close()
}

func stampCRC(buf []byte) {
	payload := buf[:len(buf)-crcLen]
	sum := crc32Checksum(payload)
	buf[len(buf)-4] = byte(sum)
	buf[len(buf)-3] = byte(sum >> 8)
	buf[len(buf)-2] = byte(sum >> 16)
	buf[len(buf)-1] = byte(sum >> 24)
}

func verifyCRC(buf []byte) error {
	payload := buf[:len(buf)-crcLen]
	want := uint32(buf[len(buf)-4]) | uint32(buf[len(buf)-3])<<8 |
		uint32(buf[len(buf)-2])<<16 | uint32(buf[len(buf)-1])<<24
	// All-zero pages (freshly allocated, never written) carry no checksum.
	if want == 0 && allZero(payload) {
		return nil
	}
	if crc32Checksum(payload) != want {
		return ErrPageCorrupt
	}
	return nil
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// crc32Checksum computes the Castagnoli CRC of b, reserving 0 to mean
// "never written" so freshly allocated zero pages verify cleanly.
func crc32Checksum(b []byte) uint32 {
	sum := crc32.Update(0, crcTable, b)
	if sum == 0 {
		sum = 1
	}
	return sum
}
