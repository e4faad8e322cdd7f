package seqdb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pagefile"
	"repro/internal/seq"
)

// fetchPageSizes are the page sizes the equivalence tests run at. Every
// payload (page − 4) and every record (4 + 8n) is 4 modulo 8, so at each
// size most page boundaries fall inside an element: the CRC trailer splits
// it and the fetch has to close the gap.
var fetchPageSizes = []int{64, 128, 256, 1024, 4096}

// heapModel drives a file-backed heap through a script of writes and holds
// what every ID must read as: after each step Fetch into one reused Scratch
// and Get are compared with the model and with each other — same bits, same
// sentinel errors.
type heapModel struct {
	t    *testing.T
	dir  string
	opts Options
	db   *DB
	sc   *Scratch
	want []seq.Sequence // by ID; nil = deleted
	next float64        // element values are a running counter: no two records alike
}

func newHeapModel(t *testing.T, pageSize int) *heapModel {
	t.Helper()
	m := &heapModel{t: t, dir: t.TempDir(), opts: Options{PageSize: pageSize, PoolPages: 8}, sc: AcquireScratch()}
	db, err := Create(m.dir, m.opts)
	if err != nil {
		t.Fatal(err)
	}
	m.db = db
	t.Cleanup(func() { m.db.Close(); m.sc.Release() })
	return m
}

func (m *heapModel) sequence(n int) seq.Sequence {
	s := make(seq.Sequence, n)
	for i := range s {
		m.next++
		s[i] = m.next + 0.25
	}
	return s
}

func (m *heapModel) append(n int) {
	m.t.Helper()
	s := m.sequence(n)
	id, err := m.db.Append(s)
	if err != nil {
		m.t.Fatal(err)
	}
	if int(id) != len(m.want) {
		m.t.Fatalf("Append returned id %d, want %d", id, len(m.want))
	}
	m.want = append(m.want, s)
}

// rollback undoes the newest record when it is live; the next append then
// reuses its ID and its space.
func (m *heapModel) rollback() {
	m.t.Helper()
	last := len(m.want) - 1
	if last < 0 || m.want[last] == nil {
		return
	}
	if err := m.db.RollbackLast(seq.ID(last)); err != nil {
		m.t.Fatal(err)
	}
	m.want = m.want[:last]
}

func (m *heapModel) delete(id int) {
	m.t.Helper()
	if len(m.want) == 0 {
		return
	}
	id %= len(m.want)
	if _, err := m.db.Delete(seq.ID(id)); err != nil {
		m.t.Fatal(err)
	}
	m.want[id] = nil
}

func (m *heapModel) flush() {
	m.t.Helper()
	if err := m.db.Flush(); err != nil {
		m.t.Fatal(err)
	}
}

func (m *heapModel) reopen() {
	m.t.Helper()
	if err := m.db.Close(); err != nil {
		m.t.Fatal(err)
	}
	db, err := Open(m.dir, m.opts)
	if err != nil {
		m.t.Fatal(err)
	}
	m.db = db
}

func (m *heapModel) check() {
	m.t.Helper()
	for id := 0; id <= len(m.want); id++ {
		got, gotErr := m.db.Fetch(seq.ID(id), m.sc)
		ref, refErr := m.db.Get(seq.ID(id))
		for _, sentinel := range []error{ErrNotFound, ErrDeleted} {
			if errors.Is(gotErr, sentinel) != errors.Is(refErr, sentinel) {
				m.t.Fatalf("id %d: Fetch err %v, Get err %v", id, gotErr, refErr)
			}
		}
		var want seq.Sequence
		switch {
		case id == len(m.want):
			if !errors.Is(gotErr, ErrNotFound) {
				m.t.Fatalf("id %d past the end: Fetch err %v, want ErrNotFound", id, gotErr)
			}
			continue
		case m.want[id] == nil:
			if !errors.Is(gotErr, ErrDeleted) {
				m.t.Fatalf("deleted id %d: Fetch err %v, want ErrDeleted", id, gotErr)
			}
			continue
		default:
			want = m.want[id]
		}
		if gotErr != nil || refErr != nil {
			m.t.Fatalf("id %d: Fetch err %v, Get err %v", id, gotErr, refErr)
		}
		if !sameBits(got, want) || !sameBits(ref, want) {
			m.t.Fatalf("id %d (%d elements): Fetch and Get disagree with what was appended\nfetch %v\nget   %v\nwant  %v",
				id, len(want), got, ref, want)
		}
	}
}

func sameBits(a, b seq.Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// runFetchScript interprets script as heap operations at the given page
// size, checking every ID after each one. Two bytes an operation: the kind,
// and a length (in elements, scaled so records cover one to several pages) or
// an ID.
func runFetchScript(t *testing.T, pageSize int, script []byte) {
	m := newHeapModel(t, pageSize)
	perPage := (pageSize - 4) / 8
	for i := 0; i+1 < len(script) && i < 96; i += 2 {
		arg := int(script[i+1])
		switch script[i] % 8 {
		case 0, 1, 2: // from one element to a little over three pages
			m.append(1 + arg*(3*perPage+2)/255)
		case 3: // fills the open page to its last byte now and then
			m.append(1 + arg%perPage)
		case 4:
			m.rollback()
			m.append(1 + arg%(2*perPage))
		case 5:
			m.delete(arg)
		case 6:
			m.flush()
		case 7:
			m.reopen()
		}
		m.check()
	}
}

// TestFetchMatchesGet: the scratch fetch and Get read every record alike —
// the newest one still in the pool, records behind the watermark, records
// whose ID and space a rollback recycled, deleted ones, across Flush and
// reopen — at every page size, with records of one to several pages.
func TestFetchMatchesGet(t *testing.T) {
	for _, pageSize := range fetchPageSizes {
		pageSize := pageSize
		t.Run(fmt.Sprintf("page=%d", pageSize), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(pageSize)))
			for round := 0; round < 6; round++ {
				script := make([]byte, 64)
				rng.Read(script)
				runFetchScript(t, pageSize, script)
			}
			// Every operation in a fixed order, ending on a reopen.
			runFetchScript(t, pageSize, []byte{0, 255, 3, 7, 0, 90, 4, 200, 5, 1, 6, 0, 1, 140, 4, 3, 7, 0, 2, 17, 5, 0, 7, 0})
		})
	}
}

// FuzzFetchMatchesGet is TestFetchMatchesGet with the script and the page
// size chosen by the fuzzer.
func FuzzFetchMatchesGet(f *testing.F) {
	f.Add(uint8(0), []byte{0, 255, 4, 9, 6, 0, 7, 0, 0, 30})
	f.Add(uint8(3), []byte{3, 126, 3, 126, 5, 0, 4, 77, 7, 0})
	f.Add(uint8(1), []byte{1, 200, 1, 200, 6, 0, 4, 1, 4, 255, 5, 2})
	f.Fuzz(func(t *testing.T, size uint8, script []byte) {
		runFetchScript(t, fetchPageSizes[int(size)%len(fetchPageSizes)], script)
	})
}

// TestFetchNewestRecordWithoutFlush: on a file-backed heap the bytes of the
// page still being appended to exist only in a dirty pool frame (the backend
// holds the zeros Alloc wrote), so a fetch that ignored the watermark would
// read the newest record as zeros. Each record is fetched the moment it is
// appended, never flushed, at sizes that end mid-page and exactly on a page
// boundary.
func TestFetchNewestRecordWithoutFlush(t *testing.T) {
	const pageSize = 128 // payload 124 bytes
	m := newHeapModel(t, pageSize)
	for _, n := range []int{3, 15, 11, 40, 1, 15, 15, 7} { // 15 elements = one whole payload
		m.append(n)
		id := seq.ID(len(m.want) - 1)
		got, err := m.db.Fetch(id, m.sc)
		if err != nil {
			t.Fatalf("fetch of unflushed record %d: %v", id, err)
		}
		if !sameBits(got, m.want[id]) {
			t.Fatalf("unflushed record %d read as %v, want %v", id, got, m.want[id])
		}
		m.check()
	}
}

// TestFetchBypassesPoolOnFile: behind the watermark a file-backed heap reads
// from the backend every time — a repeated fetch counts its pages as misses
// again, into the same pool counters — while an in-memory heap keeps going
// through pool frames, where the repeat is a hit.
func TestFetchBypassesPoolOnFile(t *testing.T) {
	file := newHeapModel(t, 1024).db
	mem, err := NewMem(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	for name, db := range map[string]*DB{"file": file, "mem": mem} {
		for i := 0; i < 20; i++ {
			if _, err := db.Append(make(seq.Sequence, 200)); err != nil { // 1604 bytes: two or three pages each
				t.Fatal(err)
			}
		}
		sc := AcquireScratch()
		if _, err := db.Fetch(5, sc); err != nil {
			t.Fatal(err)
		}
		before := db.Stats()
		if _, err := db.Fetch(5, sc); err != nil {
			t.Fatal(err)
		}
		sc.Release()
		after := db.Stats()
		reads, misses := after.Reads-before.Reads, after.Misses-before.Misses
		if reads < 2 || reads > 3 {
			t.Errorf("%s: repeated fetch counted %d page reads, want the 2 or 3 pages the record covers", name, reads)
		}
		switch name {
		case "file":
			if misses != reads || after.SeqMisses-before.SeqMisses < reads-1 {
				t.Errorf("file: repeated fetch counted %d misses (%d sequential) for %d reads, want every page a miss and all but the first sequential",
					misses, after.SeqMisses-before.SeqMisses, reads)
			}
		case "mem":
			if misses != 0 {
				t.Errorf("mem: repeated fetch missed the pool %d times, want 0 (a memory backend is read through frames)", misses)
			}
		}
	}
}

// TestFetchZeroAllocs: once its Scratch has grown, a fetch allocates nothing.
func TestFetchZeroAllocs(t *testing.T) {
	m := newHeapModel(t, 1024)
	for i := 0; i < 64; i++ {
		m.append(64 + i*2)
	}
	m.flush()
	for id := range m.want {
		if _, err := m.db.Fetch(seq.ID(id), m.sc); err != nil { // grow the scratch to the largest record
			t.Fatal(err)
		}
	}
	id := 0
	if n := testing.AllocsPerRun(200, func() {
		if _, err := m.db.Fetch(seq.ID(id%len(m.want)), m.sc); err != nil {
			t.Fatal(err)
		}
		id++
	}); n != 0 {
		t.Fatalf("%v allocs per fetch in steady state, want 0", n)
	}
}

// TestFetchDetectsCorruptPage: one flipped byte in a flushed page of
// data.twp fails the CRC of the direct read exactly as it fails a pool miss:
// every record covering that page returns ErrPageCorrupt naming it, every
// other record still reads.
func TestFetchDetectsCorruptPage(t *testing.T) {
	const pageSize, victim = 1024, 7
	m := newHeapModel(t, pageSize)
	for i := 0; i < 40; i++ {
		m.append(100)
	}
	if err := m.db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(m.dir, dataFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[16+victim*pageSize+500] ^= 0x40 // 16-byte file header, then the pages
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if m.db, err = Open(m.dir, m.opts); err != nil {
		t.Fatal(err)
	}
	const payload, record = pageSize - 4, 4 + 8*100
	corrupt := 0
	for id := range m.want {
		first, last := id*record/payload, ((id+1)*record-1)/payload
		got, err := m.db.Fetch(seq.ID(id), m.sc)
		if first <= victim && victim <= last {
			corrupt++
			if !errors.Is(err, pagefile.ErrPageCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("page %d", victim)) {
				t.Fatalf("record %d covers the damaged page: Fetch err = %v, want ErrPageCorrupt naming page %d", id, err, victim)
			}
			if _, err := m.db.Get(seq.ID(id)); !errors.Is(err, pagefile.ErrPageCorrupt) {
				t.Fatalf("record %d: Get err = %v, want ErrPageCorrupt", id, err)
			}
			continue
		}
		if err != nil || !sameBits(got, m.want[id]) {
			t.Fatalf("record %d is on intact pages: Fetch = %v, %v", id, got, err)
		}
	}
	if corrupt == 0 {
		t.Fatal("no record covered the damaged page: the test checked nothing")
	}
}

// TestFetchBesideAppendAndRollback (run it under -race): two appenders and a
// rollback loop move the watermark up and down while fetchers read the
// newest IDs. Every record says which ID it was appended under and how to
// regenerate the rest of it, so whatever a fetch returns — a rolled-back ID
// may have been reused by then — must be a record that was appended whole.
// One more goroutine deletes recent records while the readers Get them: a
// Get racing a Delete returns the whole sequence or ErrDeleted, never a torn
// one, and once the storm is over every deleted ID says ErrDeleted.
func TestFetchBesideAppendAndRollback(t *testing.T) {
	db, err := Create(t.TempDir(), Options{PageSize: 128, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	record := func(id seq.ID, nonce, n int) seq.Sequence {
		s := make(seq.Sequence, n)
		s[0], s[1] = float64(id), float64(nonce)
		for i := 2; i < n; i++ {
			s[i] = float64(nonce*1000 + i)
		}
		return s
	}
	const appends = 1500
	var writers, readers sync.WaitGroup
	var done atomic.Bool
	// Append hands out the ID, and the record has to carry it: appenders
	// serialize the pair (the database's own writers hold DB.mu across it).
	var appendMu sync.Mutex
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < appends; i++ {
				appendMu.Lock()
				id := seq.ID(db.NumRecords())
				got, err := db.Append(record(id, w*appends+i, 2+rng.Intn(40)))
				appendMu.Unlock()
				if err != nil || got != id {
					t.Errorf("Append = %d, %v; want id %d", got, err, id)
					return
				}
			}
		}(w)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < appends/3; i++ {
			appendMu.Lock()
			// A deleted record cannot be rolled back; the next append unblocks the loop.
			n := db.NumRecords()
			if _, err := db.Get(seq.ID(n - 1)); n > 0 && !errors.Is(err, ErrDeleted) {
				if err := db.RollbackLast(seq.ID(n - 1)); err != nil {
					t.Errorf("RollbackLast(%d): %v", n-1, err)
				}
			}
			appendMu.Unlock()
		}
	}()
	var deleted []seq.ID
	writers.Add(1)
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < appends/3; {
			appendMu.Lock() // against the rollback loop's Get-then-RollbackLast
			if n := db.NumRecords(); n > 0 {
				i++
				id := seq.ID(n - 1 - rng.Intn(min(n, 6)))
				if ok, err := db.Delete(id); err != nil {
					t.Errorf("Delete(%d): %v", id, err)
				} else if ok {
					deleted = append(deleted, id)
				}
			}
			appendMu.Unlock()
		}
	}()
	// whole says whether a read of id returned a record appended whole under
	// that ID, or the error of one rolled back or deleted since NumRecords.
	whole := func(id seq.ID, s seq.Sequence, err error) bool {
		if errors.Is(err, ErrNotFound) || errors.Is(err, ErrDeleted) {
			return true
		}
		if err != nil {
			t.Errorf("read of %d: %v", id, err)
			return false
		}
		if len(s) < 2 || seq.ID(s[0]) != id || !sameBits(s, record(id, int(s[1]), len(s))) {
			t.Errorf("read of %d returned a record nobody appended: %v", id, s)
			return false
		}
		return true
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			sc := AcquireScratch()
			defer sc.Release()
			for !done.Load() {
				n := db.NumRecords()
				if n == 0 {
					continue
				}
				id := seq.ID(n - 1 - rng.Intn(min(n, 6)))
				s, err := db.Fetch(id, sc)
				if !whole(id, s, err) {
					return
				}
				if s, err = db.Get(id); !whole(id, s, err) {
					return
				}
			}
		}(r)
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
	if len(deleted) == 0 {
		t.Fatal("nothing was deleted: the Get-beside-Delete half checked nothing")
	}
	for _, id := range deleted {
		if _, err := db.Get(id); !errors.Is(err, ErrDeleted) {
			t.Fatalf("Get(%d) after Delete = %v, want ErrDeleted", id, err)
		}
	}
}
