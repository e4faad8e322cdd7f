package flatidx

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// DefaultMergeThreshold is the delta size (adds + tombstones) at which a
// background merge is scheduled when Options.MergeThreshold is zero.
const DefaultMergeThreshold = 4096

// Options configures an Index.
type Options struct {
	// MergeThreshold schedules a background merge once the delta holds this
	// many entries (adds + tombstones). Zero means DefaultMergeThreshold; a
	// negative value disables automatic merging (Merge still merges on
	// demand).
	MergeThreshold int
}

// view is the atomically-published read state: one immutable snapshot plus
// the delta visible at publication time. Readers load a *view once per
// operation and work against it for the operation's whole lifetime, so a
// query observes exactly one generation.
//
// Invariants (maintained by the writer under Index.mu):
//   - every entry in adds is absent from snap
//   - every entry in dels is present in snap
//   - adds and dels are disjoint
//
// Together these make snapshot ∪ delta duplicate-free: an ID resurrected
// after a tombstone lives either in snap (tombstone removed) or in adds
// (if its point changed), never both.
type view struct {
	snap *Snapshot
	// adds aliases a prefix of the writer's append-only array. Slots below
	// len(adds) were fully written before this view was published and are
	// never rewritten (a delete-of-an-add swaps in a fresh array), so
	// readers may index them freely.
	adds []Entry
	// dels is copy-on-write: the map a view holds is never mutated again.
	// nil when there are no tombstones (the common case after a merge).
	dels map[Entry]struct{}
}

// Index is the flat engine: an immutable packed snapshot plus a small
// mutable delta absorbing inserts and deletes, merged off the hot path.
// Readers are lock-free (one atomic view load per operation); writers and
// the merge serialize on mu.
type Index struct {
	opts Options
	view atomic.Pointer[view]

	mu      sync.Mutex
	adds    []Entry       // writer-owned append-only array (see view.adds)
	addsSet map[Entry]int // entry → index in adds
	closed  bool

	// openBytesRead is the number of bytes Load explicitly read from the
	// snapshot file (0 on the mmap path, which only faults in the header).
	openBytesRead int64

	merging   atomic.Bool // a background merge is scheduled or running
	merges    atomic.Int64
	mergeHist obs.Histogram
	wg        sync.WaitGroup
}

// New returns an empty index at generation 0.
func New(opts Options) *Index {
	if opts.MergeThreshold == 0 {
		opts.MergeThreshold = DefaultMergeThreshold
	}
	x := &Index{opts: opts, addsSet: make(map[Entry]int)}
	x.view.Store(&view{snap: Build(nil, 0)})
	return x
}

// Insert adds e to the index. Inserting an entry that is already present
// (same ID and point) is a no-op; re-inserting a tombstoned snapshot entry
// just clears the tombstone (the snapshot copy becomes visible again).
func (x *Index) Insert(e Entry) {
	x.mu.Lock()
	defer x.mu.Unlock()
	v := x.view.Load()
	if _, dead := v.dels[e]; dead {
		// Resurrect: drop the tombstone; the snapshot copy becomes visible
		// again.
		dels := copyDels(v.dels)
		delete(dels, e)
		if len(dels) == 0 {
			dels = nil
		}
		x.view.Store(&view{snap: v.snap, adds: v.adds, dels: dels})
		return
	}
	if _, ok := x.addsSet[e]; ok {
		return
	}
	if v.snap.contains(e) {
		return
	}
	x.adds = append(x.adds, e)
	x.addsSet[e] = len(x.adds) - 1
	x.view.Store(&view{snap: v.snap, adds: x.adds, dels: v.dels})
	x.maybeMergeLocked()
}

// Delete removes e (matched by ID and point), reporting whether it was
// present. A delta add is removed outright; a snapshot entry gains a
// tombstone until the next merge drops it from the slab.
func (x *Index) Delete(e Entry) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	v := x.view.Load()
	if i, ok := x.addsSet[e]; ok {
		// Readers may hold views aliasing the current array, so build a
		// fresh one without e rather than shifting in place.
		next := make([]Entry, 0, len(x.adds)-1)
		next = append(next, x.adds[:i]...)
		next = append(next, x.adds[i+1:]...)
		x.adds = next
		delete(x.addsSet, e)
		for j := i; j < len(x.adds); j++ {
			x.addsSet[x.adds[j]] = j
		}
		x.view.Store(&view{snap: v.snap, adds: x.adds, dels: v.dels})
		return true
	}
	if _, dead := v.dels[e]; dead {
		return false
	}
	if !v.snap.contains(e) {
		return false
	}
	dels := copyDels(v.dels)
	dels[e] = struct{}{}
	x.view.Store(&view{snap: v.snap, adds: v.adds, dels: dels})
	x.maybeMergeLocked()
	return true
}

func copyDels(dels map[Entry]struct{}) map[Entry]struct{} {
	out := make(map[Entry]struct{}, len(dels)+1)
	for e := range dels {
		out[e] = struct{}{}
	}
	return out
}

// BulkLoad replaces the current state with a freshly packed snapshot over
// entries. The index must be empty (it is the load-time fast path, exactly
// like the Guttman engine's BulkLoad).
func (x *Index) BulkLoad(entries []Entry) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	v := x.view.Load()
	if v.snap.Len() != 0 || len(v.adds) != 0 || len(v.dels) != 0 {
		return fmt.Errorf("flatidx: BulkLoad into non-empty index (%d items)", x.lenLocked(v))
	}
	x.view.Store(&view{snap: Build(entries, v.snap.Generation()+1)})
	return nil
}

// maybeMergeLocked schedules a background merge when the delta has grown
// past the threshold. Caller holds mu.
func (x *Index) maybeMergeLocked() {
	if x.opts.MergeThreshold < 0 || x.closed {
		return
	}
	v := x.view.Load()
	if len(v.adds)+len(v.dels) < x.opts.MergeThreshold {
		return
	}
	if !x.merging.CompareAndSwap(false, true) {
		return // one merge in flight at a time
	}
	x.wg.Add(1)
	go func() {
		defer x.wg.Done()
		defer x.merging.Store(false)
		// No closed check here: a merge scheduled before Close is safe to
		// finish (Close waits on wg), and completing it keeps Merges()
		// honest for save-on-close callers.
		x.mu.Lock()
		defer x.mu.Unlock()
		x.mergeLocked()
	}()
}

// Merge synchronously folds the delta into a new packed snapshot and swaps
// it in. A no-op when the delta is empty.
func (x *Index) Merge() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.mergeLocked()
}

// mergeLocked rebuilds the slab from snapshot ∪ delta and publishes it as
// the next generation. Caller holds mu; readers keep streaming the old
// generation until the single atomic store below.
func (x *Index) mergeLocked() {
	v := x.view.Load()
	if len(v.adds) == 0 && len(v.dels) == 0 {
		return
	}
	start := time.Now()
	entries := x.Entries(make([]Entry, 0, x.lenLocked(v)))
	x.view.Store(&view{snap: Build(entries, v.snap.Generation()+1)})
	x.adds = nil
	x.addsSet = make(map[Entry]int)
	x.merges.Add(1)
	x.mergeHist.Observe(time.Since(start))
}

// AppendRange appends every entry inside the closed rect [lo, hi] —
// snapshot minus tombstones, plus delta adds — to dst and returns it.
// Allocation-free beyond dst growth: the walk recurses over the packed
// slab and scans the adds array.
func (x *Index) AppendRange(dst []Entry, lo, hi *[4]float64) []Entry {
	v := x.view.Load()
	dst = v.snap.appendRange(dst, lo, hi, v.dels)
	for i := range v.adds {
		e := &v.adds[i]
		in := true
		for d := 0; d < 4; d++ {
			if e.Point[d] < lo[d] || e.Point[d] > hi[d] {
				in = false
				break
			}
		}
		if in {
			dst = append(dst, *e)
		}
	}
	return dst
}

// Contains reports whether the index currently holds exactly e.
func (x *Index) Contains(e Entry) bool {
	v := x.view.Load()
	if _, dead := v.dels[e]; dead {
		return false
	}
	if v.snap.contains(e) {
		return true
	}
	for i := range v.adds {
		if v.adds[i] == e {
			return true
		}
	}
	return false
}

// Entries appends every live entry (snapshot minus tombstones, plus delta
// adds) to dst and returns it.
func (x *Index) Entries(dst []Entry) []Entry {
	v := x.view.Load()
	for j := 0; j < v.snap.Len(); j++ {
		e := v.snap.item(j)
		if _, dead := v.dels[e]; dead {
			continue
		}
		dst = append(dst, e)
	}
	dst = append(dst, v.adds...)
	return dst
}

// Len returns the live entry count.
func (x *Index) Len() int {
	return x.lenLocked(x.view.Load())
}

func (x *Index) lenLocked(v *view) int {
	return v.snap.Len() - len(v.dels) + len(v.adds)
}

// Generation returns the current snapshot generation.
func (x *Index) Generation() uint64 { return x.view.Load().snap.Generation() }

// DeltaEntries returns the current delta size (adds + tombstones).
func (x *Index) DeltaEntries() int {
	v := x.view.Load()
	return len(v.adds) + len(v.dels)
}

// Merges returns the number of delta merges performed.
func (x *Index) Merges() int64 { return x.merges.Load() }

// MergeHist returns a snapshot of the merge-duration histogram.
func (x *Index) MergeHist() obs.HistogramData { return x.mergeHist.Data() }

// SlabBytes returns the size of the current snapshot slab.
func (x *Index) SlabBytes() int64 { return int64(len(x.view.Load().snap.Bytes())) }

// MmapBytes returns the size of the current snapshot's file mapping, or 0
// when the snapshot is heap-backed (built in memory, loaded through the
// portable fallback, or already superseded by a merge).
func (x *Index) MmapBytes() int64 { return x.view.Load().snap.mapped }

// OpenBytesRead returns the number of bytes Load explicitly read from the
// snapshot file when this index was opened: the whole file on the portable
// fallback path, 0 on the mmap path (where only the header page is faulted
// in before the first query).
func (x *Index) OpenBytesRead() int64 { return x.openBytesRead }

// CheckInvariants validates the packed snapshot and the delta invariants
// (adds disjoint from snapshot, tombstones present in snapshot).
func (x *Index) CheckInvariants() error {
	v := x.view.Load()
	if err := v.snap.CheckInvariants(); err != nil {
		return err
	}
	for i := range v.adds {
		if v.snap.contains(v.adds[i]) {
			return fmt.Errorf("flatidx: delta add %d also present in snapshot", v.adds[i].ID)
		}
	}
	for e := range v.dels {
		if !v.snap.contains(e) {
			return fmt.Errorf("flatidx: tombstone %d not present in snapshot", e.ID)
		}
	}
	return nil
}

// Close waits for any in-flight background merge. The index stays readable
// (Save-on-close callers read it after Close returns).
func (x *Index) Close() error {
	x.mu.Lock()
	x.closed = true
	x.mu.Unlock()
	x.wg.Wait()
	return nil
}
