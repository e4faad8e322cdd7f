package rtree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/pagefile"
)

const (
	metaMagic   = 0x54575254 // "TWRT"
	metaVersion = 1
	metaPage    = pagefile.PageID(0)
)

// ErrDimension is returned when a rectangle of the wrong dimensionality is
// passed to a tree operation.
var ErrDimension = errors.New("rtree: dimensionality mismatch")

// Tree is a disk-resident R-tree. It is not safe for concurrent mutation;
// concurrent read-only searches are safe with respect to each other.
type Tree struct {
	pool *pagefile.Pool
	dim  int
	max  int // node capacity M
	min  int // minimum fill m

	root   pagefile.PageID
	height int // 1 = root is a leaf
	size   int // number of data entries

	free []pagefile.PageID // pages released by delete, reusable by allocNode
}

// Options configures tree creation.
type Options struct {
	// MaxEntries caps the node fanout below the page-derived capacity
	// (0 = use full capacity). Used by tests to force deep trees.
	MaxEntries int
}

// Create initializes an empty tree of the given dimensionality on pool. The
// pool must be fresh (no allocated pages): the tree claims page 0 for its
// metadata and the remaining pages for nodes.
func Create(pool *pagefile.Pool, dim int, opts Options) (*Tree, error) {
	if dim < 1 {
		return nil, fmt.Errorf("rtree: dimension %d < 1", dim)
	}
	if pool.NumPages() != 0 {
		return nil, errors.New("rtree: Create requires an empty page store")
	}
	max := nodeCapacity(pool.PayloadSize(), dim)
	if opts.MaxEntries > 0 && opts.MaxEntries < max {
		max = opts.MaxEntries
	}
	if max < 4 {
		return nil, fmt.Errorf("rtree: page size too small: node capacity %d < 4", max)
	}
	t := &Tree{
		pool: pool,
		dim:  dim,
		max:  max,
		min:  minFill(max),
	}
	meta, err := pool.Alloc()
	if err != nil {
		return nil, err
	}
	meta.Unpin()
	if meta.ID() != metaPage {
		return nil, fmt.Errorf("rtree: meta page allocated as %d", meta.ID())
	}
	rootNode, err := t.allocNode(true)
	if err != nil {
		return nil, err
	}
	t.root = rootNode.pid
	t.height = 1
	if err := t.saveMeta(); err != nil {
		return nil, err
	}
	return t, nil
}

// Open loads an existing tree from pool.
func Open(pool *pagefile.Pool) (*Tree, error) {
	p, err := pool.Fetch(metaPage)
	if err != nil {
		return nil, err
	}
	defer p.Unpin()
	buf := p.Payload()
	if binary.LittleEndian.Uint32(buf[0:]) != metaMagic {
		return nil, errors.New("rtree: bad meta magic")
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != metaVersion {
		return nil, fmt.Errorf("rtree: unsupported meta version %d", v)
	}
	dim := int(binary.LittleEndian.Uint32(buf[8:]))
	t := &Tree{
		pool:   pool,
		dim:    dim,
		root:   pagefile.PageID(binary.LittleEndian.Uint32(buf[16:])),
		height: int(binary.LittleEndian.Uint32(buf[20:])),
		size:   int(binary.LittleEndian.Uint64(buf[24:])),
		max:    int(binary.LittleEndian.Uint32(buf[32:])),
	}
	t.min = minFill(t.max)
	nfree := int(binary.LittleEndian.Uint32(buf[36:]))
	for i := 0; i < nfree; i++ {
		t.free = append(t.free, pagefile.PageID(binary.LittleEndian.Uint32(buf[40+4*i:])))
	}
	return t, nil
}

func minFill(max int) int {
	m := max * 2 / 5 // 40% fill, within Guttman's m <= M/2
	if m < 2 {
		m = 2
	}
	return m
}

func (t *Tree) saveMeta() error {
	p, err := t.pool.Fetch(metaPage)
	if err != nil {
		return err
	}
	defer p.Unpin()
	buf := p.Payload()
	binary.LittleEndian.PutUint32(buf[0:], metaMagic)
	binary.LittleEndian.PutUint32(buf[4:], metaVersion)
	binary.LittleEndian.PutUint32(buf[8:], uint32(t.dim))
	binary.LittleEndian.PutUint32(buf[12:], 0) // reserved: written 0, ignored on read
	binary.LittleEndian.PutUint32(buf[16:], uint32(t.root))
	binary.LittleEndian.PutUint32(buf[20:], uint32(t.height))
	binary.LittleEndian.PutUint64(buf[24:], uint64(t.size))
	binary.LittleEndian.PutUint32(buf[32:], uint32(t.max))
	// Persist as much of the free list as fits in the meta page; overflow
	// pages are merely leaked, never corrupted.
	maxFree := (len(buf) - 40) / 4
	nfree := len(t.free)
	if nfree > maxFree {
		nfree = maxFree
	}
	binary.LittleEndian.PutUint32(buf[36:], uint32(nfree))
	for i := 0; i < nfree; i++ {
		binary.LittleEndian.PutUint32(buf[40+4*i:], uint32(t.free[i]))
	}
	p.MarkDirty()
	return nil
}

// Dim returns the tree's dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of stored data entries.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 = the root is a leaf).
func (t *Tree) Height() int { return t.height }

// MaxEntries returns the node capacity M.
func (t *Tree) MaxEntries() int { return t.max }

// NodePages returns the number of pages the tree occupies (incl. metadata).
func (t *Tree) NodePages() int { return t.pool.NumPages() }

// Stats exposes the underlying buffer pool counters.
func (t *Tree) Stats() pagefile.Stats { return t.pool.Stats() }

// Flush persists all dirty pages and the metadata.
func (t *Tree) Flush() error {
	if err := t.saveMeta(); err != nil {
		return err
	}
	return t.pool.FlushAll()
}

// Close flushes and closes the underlying pool.
func (t *Tree) Close() error {
	if err := t.Flush(); err != nil {
		t.pool.Close()
		return err
	}
	return t.pool.Close()
}

// checkDim validates a rectangle's dimensionality.
func (t *Tree) checkDim(r Rect) error {
	if r.Dim() != t.dim {
		return fmt.Errorf("%w: rect dim %d, tree dim %d", ErrDimension, r.Dim(), t.dim)
	}
	return nil
}
