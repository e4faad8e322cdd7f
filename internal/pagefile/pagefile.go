// Package pagefile provides the paged storage substrate the sequence heap
// file and the R-tree are built on: fixed-size CRC-checked pages addressed
// by PageID, served through an LRU buffer pool with pin counts, backed
// either by a real file on disk or by memory (for tests and CPU-bound
// experiments).
//
// The buffer pool counts logical reads and physical misses; the experiment
// harness converts miss counts into modeled disk time so that elapsed-time
// comparisons are independent of the host machine (see DESIGN.md §3).
package pagefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// PageID addresses a page within a store. IDs are dense, starting at 0.
type PageID uint32

// InvalidPage is the nil page reference.
const InvalidPage = PageID(0xFFFFFFFF)

// DefaultPageSize matches the paper's experimental setup (§5.1: R-tree page
// size 1 KB).
const DefaultPageSize = 1024

// crcLen is the per-page trailer holding a CRC-32 (Castagnoli) of the
// payload.
const crcLen = 4

var (
	// ErrPageCorrupt indicates a CRC mismatch on a page read from disk.
	ErrPageCorrupt = errors.New("pagefile: page checksum mismatch")
	// ErrOutOfRange indicates an access to a page that was never allocated.
	ErrOutOfRange = errors.New("pagefile: page id out of range")
	// ErrClosed indicates use after Close.
	ErrClosed = errors.New("pagefile: store is closed")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Backend is the raw page transport underneath the buffer pool.
type Backend interface {
	// ReadPage fills buf (exactly the page size) with page id's bytes.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf as page id's bytes.
	WritePage(id PageID, buf []byte) error
	// Alloc extends the store by one page and returns its id.
	Alloc() (PageID, error)
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Close releases resources.
	Close() error
}

// RunReader is an optional Backend capability: one positional read of
// consecutive pages. The heap's candidate fetch uses it to read the pages a
// record covers without going through pool frames (Pool.ReadRun); a backend
// without it (MemBackend, a wrapper that does not forward it) is read page
// by page through the pool.
type RunReader interface {
	// ReadRun fills buf (exactly n pages) with pages first … first+n-1.
	ReadRun(first PageID, n int, buf []byte) error
}

// MemBackend keeps pages in memory. It still participates fully in buffer
// pool accounting, so I/O cost models remain meaningful.
type MemBackend struct {
	pageSize int
	mu       sync.Mutex
	pages    [][]byte
}

// NewMemBackend returns an empty in-memory backend with the given page size.
func NewMemBackend(pageSize int) *MemBackend {
	return &MemBackend{pageSize: pageSize}
}

// ReadPage implements Backend.
func (m *MemBackend) ReadPage(id PageID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: %d of %d", ErrOutOfRange, id, len(m.pages))
	}
	copy(buf, m.pages[id])
	return nil
}

// WritePage implements Backend.
func (m *MemBackend) WritePage(id PageID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: %d of %d", ErrOutOfRange, id, len(m.pages))
	}
	copy(m.pages[id], buf)
	return nil
}

// Alloc implements Backend.
func (m *MemBackend) Alloc() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pages = append(m.pages, make([]byte, m.pageSize))
	return PageID(len(m.pages) - 1), nil
}

// NumPages implements Backend.
func (m *MemBackend) NumPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pages)
}

// Close implements Backend.
func (m *MemBackend) Close() error { return nil }

// fileHeader occupies the first fileHeaderLen bytes of a page file.
const (
	fileMagic     = 0x54575350 // "TWSP"
	fileVersion   = 1
	fileHeaderLen = 16
)

// FileBackend stores pages in a single OS file, after a 16-byte header
// recording magic, version, and page size.
type FileBackend struct {
	f        *os.File
	pageSize int
	mu       sync.Mutex
	n        int
}

// CreateFile creates (truncating) a page file at path.
func CreateFile(path string, pageSize int) (*FileBackend, error) {
	if pageSize < 64 {
		return nil, fmt.Errorf("pagefile: page size %d too small", pageSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, fileHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:], fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:], fileVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(pageSize))
	if _, err := f.WriteAt(hdr, 0); err != nil {
		f.Close()
		return nil, err
	}
	return &FileBackend{f: f, pageSize: pageSize}, nil
}

// OpenFile opens an existing page file, validating its header.
func OpenFile(path string) (*FileBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, fileHeaderLen)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, fileHeaderLen), hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("pagefile: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != fileMagic {
		f.Close()
		return nil, fmt.Errorf("pagefile: %s is not a page file", path)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != fileVersion {
		f.Close()
		return nil, fmt.Errorf("pagefile: unsupported version %d", v)
	}
	pageSize := int(binary.LittleEndian.Uint32(hdr[8:]))
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	n := int((st.Size() - fileHeaderLen) / int64(pageSize))
	return &FileBackend{f: f, pageSize: pageSize, n: n}, nil
}

// PageSize returns the page size recorded in the file header.
func (b *FileBackend) PageSize() int { return b.pageSize }

func (b *FileBackend) offset(id PageID) int64 {
	return fileHeaderLen + int64(id)*int64(b.pageSize)
}

// ReadPage implements Backend.
func (b *FileBackend) ReadPage(id PageID, buf []byte) error {
	b.mu.Lock()
	n := b.n
	b.mu.Unlock()
	if int(id) >= n {
		return fmt.Errorf("%w: %d of %d", ErrOutOfRange, id, n)
	}
	_, err := b.f.ReadAt(buf[:b.pageSize], b.offset(id))
	return err
}

// ReadRun implements RunReader: one pread for the whole run.
func (b *FileBackend) ReadRun(first PageID, n int, buf []byte) error {
	b.mu.Lock()
	have := b.n
	b.mu.Unlock()
	if int(first)+n > have {
		return fmt.Errorf("%w: pages %d..%d of %d", ErrOutOfRange, first, int(first)+n-1, have)
	}
	_, err := b.f.ReadAt(buf[:n*b.pageSize], b.offset(first))
	return err
}

// WritePage implements Backend.
func (b *FileBackend) WritePage(id PageID, buf []byte) error {
	b.mu.Lock()
	n := b.n
	b.mu.Unlock()
	if int(id) >= n {
		return fmt.Errorf("%w: %d of %d", ErrOutOfRange, id, n)
	}
	_, err := b.f.WriteAt(buf[:b.pageSize], b.offset(id))
	return err
}

// Alloc implements Backend.
func (b *FileBackend) Alloc() (PageID, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := PageID(b.n)
	zero := make([]byte, b.pageSize)
	if _, err := b.f.WriteAt(zero, b.offset(id)); err != nil {
		return InvalidPage, err
	}
	b.n++
	return id, nil
}

// NumPages implements Backend.
func (b *FileBackend) NumPages() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// Sync flushes the underlying file to stable storage.
func (b *FileBackend) Sync() error { return b.f.Sync() }

// Close implements Backend.
func (b *FileBackend) Close() error { return b.f.Close() }
