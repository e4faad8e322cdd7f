// Package flatidx implements the flat read-path feature index: an
// immutable, bulk-loaded, pointer-free packed R-tree over the paper's 4-d
// feature vectors, a small mutable delta overlay absorbing inserts and
// deletes, and a background merge that rebuilds the packed tree off the hot
// path and atomically swaps snapshots.
//
// The packed tree (Snapshot) is one contiguous byte slab: a fixed-size
// header, a node region (rect + implicit child range per node, root first)
// and an item region (the STR-packed <point, id> leaf entries). Child
// offsets are implicit — the node layout is a pure function of the item
// count — so a snapshot has no pointers to chase, no per-node page
// round-trips, and a range walk allocates nothing beyond the caller's
// result buffer. A snapshot is also trivially a file: Save writes the slab
// plus a CRC, Load verifies and adopts it.
//
// Readers never lock: every query loads one *view (snapshot + delta) from
// an atomic pointer and works against that immutable generation for its
// whole lifetime (see DESIGN.md §11 for the read-semantics argument).
// Writers and the merge serialize on one mutex; swapping in a merged
// snapshot is a single atomic pointer store, so a reader sees either the
// old generation or the new one, never a torn tree.
package flatidx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"repro/internal/seq"
)

// Entry is one indexed <feature point, sequence ID> pair — the flat
// counterpart of core.IndexEntry (field-compatible; the core wrapper
// converts). Entries are compared by value: the index holds a set of them.
type Entry struct {
	ID    seq.ID
	Point [4]float64
}

// Slab layout constants. All integers are little-endian; all floats are
// IEEE-754 bits stored little-endian.
const (
	magic      = "TWFS" // time-warping flat snapshot
	version    = 1
	headerSize = 32 // magic(4) version(4) flags(4) nNodes(4) nItems(4) height(4) gen(8)
	nodeSize   = 72 // rect lo[4](32) hi[4](32) first(4) count|leafBit(4)
	itemSize   = 36 // point[4](32) id(4)

	// Fanout is the packed tree's node capacity. STR packs every node full
	// (the last node per level may be short), so with 4000 items the tree is
	// 250 leaves, 16 internals, one root — three node levels, ~19 KB of
	// nodes.
	Fanout = 16

	leafBit = 1 << 31

	// maxItems bounds the decodable item count: it keeps every offset
	// computation far from int overflow even on 32-bit ints and rejects
	// absurd headers before any size arithmetic.
	maxItems = 1 << 27
)

// Snapshot is one immutable packed tree. All methods are read-only and safe
// for unlimited concurrent use; a Snapshot is never modified after Build or
// Decode returns it.
//
// A snapshot loaded through the mmap path keeps its slab inside a read-only
// file mapping: release unmaps it, and Load arms it as a finalizer so the
// mapping is dropped only once the garbage collector proves no view (and no
// in-flight reader holding one) can reach the snapshot anymore — the
// munmap-after-last-reference fence behind the atomic snapshot swap.
type Snapshot struct {
	slab     []byte
	nNodes   int
	nItems   int
	height   int
	gen      uint64
	itemsOff int

	// levelStart[ℓ]/levelSize[ℓ] describe the deterministic node layout
	// (root level first). nodeFirstCount derives child ranges from them
	// instead of trusting slab bytes, so a slab admitted by the lazy
	// header-only validation can never index out of bounds — corrupt body
	// bytes yield wrong coordinates at worst, never a fault.
	levelStart []int
	levelSize  []int

	mapped  int64        // mapping size when file-backed via mmap, else 0
	wantCRC uint32       // trailing file CRC, for the lazy full check
	crcSet  bool         // wantCRC is meaningful (snapshot came from a file)
	release func() error // unmaps the backing file; nil when heap-backed
}

// initLayout fills the computed per-level node layout for nItems.
func (s *Snapshot) initLayout() {
	sizes := levelSizes(s.nItems)
	s.levelSize = sizes
	s.levelStart = make([]int, len(sizes))
	for ℓ := 1; ℓ < len(sizes); ℓ++ {
		s.levelStart[ℓ] = s.levelStart[ℓ-1] + sizes[ℓ-1]
	}
}

// releaseMapping unmaps the snapshot's backing file mapping, if any. It is
// installed as the snapshot's finalizer by the mmap Load path; by the time
// the collector runs it, no reader can still hold a view referencing this
// snapshot, so the slab memory is provably unreachable.
func (s *Snapshot) releaseMapping() {
	if s.release != nil {
		_ = s.release()
		s.release = nil
	}
}

// levelSizes returns the per-level node counts of the packed tree over n
// items, root level first — the deterministic layout both Build and Decode
// agree on. nil for n == 0 (an empty snapshot has no nodes).
func levelSizes(n int) []int {
	if n == 0 {
		return nil
	}
	sizes := []int{(n + Fanout - 1) / Fanout}
	for sizes[0] > 1 {
		sizes = append([]int{(sizes[0] + Fanout - 1) / Fanout}, sizes...)
	}
	return sizes
}

// Build packs entries into a fresh snapshot using Sort-Tile-Recursive
// ordering (the same packing discipline the Guttman engine's BulkLoad
// uses). gen is the snapshot generation recorded in the header.
func Build(entries []Entry, gen uint64) *Snapshot {
	n := len(entries)
	sizes := levelSizes(n)
	nNodes := 0
	for _, s := range sizes {
		nNodes += s
	}
	s := &Snapshot{
		slab:     make([]byte, slabSize(nNodes, n)),
		nNodes:   nNodes,
		nItems:   n,
		height:   len(sizes),
		gen:      gen,
		itemsOff: headerSize + nNodes*nodeSize,
	}
	s.initLayout()

	// Header. The flags word is reserved and always zero.
	copy(s.slab[0:4], magic)
	putU32 := func(off int, v uint32) { binary.LittleEndian.PutUint32(s.slab[off:], v) }
	putU32(4, version)
	putU32(12, uint32(nNodes))
	putU32(16, uint32(n))
	putU32(20, uint32(len(sizes)))
	binary.LittleEndian.PutUint64(s.slab[24:], gen)

	if n == 0 {
		return s
	}

	// Items, in STR order.
	ord := strOrder(entries)
	for j, oi := range ord {
		putItem(s.slab[s.itemsOff+j*itemSize:], entries[oi])
	}

	// Nodes, level by level (root level first in the slab), rects filled
	// bottom-up. levelStart[ℓ] is the global index of level ℓ's first node.
	levelStart := make([]int, len(sizes))
	for ℓ := 1; ℓ < len(sizes); ℓ++ {
		levelStart[ℓ] = levelStart[ℓ-1] + sizes[ℓ-1]
	}
	for ℓ := len(sizes) - 1; ℓ >= 0; ℓ-- {
		leaf := ℓ == len(sizes)-1
		childCount := n
		if !leaf {
			childCount = sizes[ℓ+1]
		}
		for w := 0; w < sizes[ℓ]; w++ {
			g := levelStart[ℓ] + w
			first := w * Fanout
			count := childCount - first
			if count > Fanout {
				count = Fanout
			}
			var lo, hi [4]float64
			if leaf {
				s.itemPoint(first, &lo)
				hi = lo
				var p [4]float64
				for j := first + 1; j < first+count; j++ {
					s.itemPoint(j, &p)
					for d := 0; d < 4; d++ {
						if p[d] < lo[d] {
							lo[d] = p[d]
						}
						if p[d] > hi[d] {
							hi[d] = p[d]
						}
					}
				}
			} else {
				cBase := levelStart[ℓ+1]
				s.nodeRect(cBase+first, &lo, &hi)
				var clo, chi [4]float64
				for c := first + 1; c < first+count; c++ {
					s.nodeRect(cBase+c, &clo, &chi)
					for d := 0; d < 4; d++ {
						if clo[d] < lo[d] {
							lo[d] = clo[d]
						}
						if chi[d] > hi[d] {
							hi[d] = chi[d]
						}
					}
				}
				first += cBase // store the global child index
			}
			off := headerSize + g*nodeSize
			for d := 0; d < 4; d++ {
				binary.LittleEndian.PutUint64(s.slab[off+d*8:], math.Float64bits(lo[d]))
				binary.LittleEndian.PutUint64(s.slab[off+32+d*8:], math.Float64bits(hi[d]))
			}
			putU32(off+64, uint32(first))
			cf := uint32(count)
			if leaf {
				cf |= leafBit
			}
			putU32(off+68, cf)
		}
	}
	return s
}

// strOrder returns the Sort-Tile-Recursive permutation of entries: sort by
// the first dimension, cut into slabs sized to whole leaves, recurse on the
// next dimension within each slab. The stable sort makes the packing
// deterministic for a given input order.
func strOrder(entries []Entry) []int {
	ord := make([]int, len(entries))
	for i := range ord {
		ord[i] = i
	}
	var tile func(idx []int, dims int)
	tile = func(idx []int, dims int) {
		if len(idx) <= Fanout {
			return
		}
		dim := 4 - dims
		sort.SliceStable(idx, func(a, b int) bool {
			return entries[idx[a]].Point[dim] < entries[idx[b]].Point[dim]
		})
		if dims <= 1 {
			return
		}
		pages := (len(idx) + Fanout - 1) / Fanout
		slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(dims))))
		if slabs < 1 {
			slabs = 1
		}
		per := (len(idx) + slabs - 1) / slabs
		if rem := per % Fanout; rem != 0 {
			per += Fanout - rem // slab cuts on whole-leaf boundaries
		}
		for off := 0; off < len(idx); off += per {
			end := off + per
			if end > len(idx) {
				end = len(idx)
			}
			tile(idx[off:end], dims-1)
		}
	}
	tile(ord, 4)
	return ord
}

// Decode adopts a slab produced by Build (or read back from a snapshot
// file), validating the header, the deterministic node layout, and the
// geometric invariants (every item inside its leaf rect, every child rect
// inside its parent's) before returning. It never panics on hostile bytes:
// anything structurally off — sizes, flags, child ranges, leaf markers,
// non-finite or non-containing rects — is an error. The slab is retained,
// not copied; the caller must not modify it afterwards.
func Decode(data []byte) (*Snapshot, error) {
	s, err := DecodeLite(data)
	if err != nil {
		return nil, err
	}
	if err := s.CheckInvariants(); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeLite is Decode without the O(slab) structural pass: it validates
// only the header (magic, version, flags, counts consistent with the
// deterministic layout, total size) — constant work, touching one page of a
// mapped file. Child ranges are computed from the layout rather than read
// from the slab, so even a body-corrupted slab cannot make the accessors
// index out of bounds; corruption the header check cannot see is caught by
// the lazy full check (CheckInvariants) or surfaces as wrong floats, never
// as a fault. The mmap Load path uses this so opening a huge database costs
// O(header) bytes; rebuild/repair paths still run the full validation.
func DecodeLite(data []byte) (*Snapshot, error) {
	nNodes, nItems, height, err := headerLayout(data)
	if err != nil {
		return nil, err
	}
	if total := slabSize(nNodes, nItems); len(data) != total {
		return nil, fmt.Errorf("flatidx: slab is %d bytes, layout wants %d", len(data), total)
	}
	s := &Snapshot{
		slab:     data,
		nNodes:   nNodes,
		nItems:   nItems,
		height:   height,
		gen:      binary.LittleEndian.Uint64(data[24:]),
		itemsOff: headerSize + nNodes*nodeSize,
	}
	s.initLayout()
	return s, nil
}

// headerLayout validates the slab header at the front of data (magic,
// version, flags, counts consistent with the deterministic layout) and
// returns the counts. data may run past the slab: a snapshot file carries
// a checksum and a delta section behind it, and Load sizes the slab from
// this header before it splits the file.
func headerLayout(data []byte) (nNodes, nItems, height int, err error) {
	if len(data) < headerSize {
		return 0, 0, 0, fmt.Errorf("flatidx: slab too short (%d bytes)", len(data))
	}
	if string(data[0:4]) != magic {
		return 0, 0, 0, errors.New("flatidx: bad magic")
	}
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(data[off:]) }
	if v := u32(4); v != version {
		return 0, 0, 0, fmt.Errorf("flatidx: unsupported version %d", v)
	}
	// Bit 0 marked the per-item PAA envelope region older snapshots carried;
	// envelopes now live only in the envelope store, so such a file is
	// refused like any other unknown layout and the caller rebuilds it.
	if flags := u32(8); flags != 0 {
		return 0, 0, 0, fmt.Errorf("flatidx: unsupported flags %#x (an envelope-carrying snapshot from an older layout?)", flags)
	}
	nNodes, nItems, height = int(u32(12)), int(u32(16)), int(u32(20))
	if nItems < 0 || nItems > maxItems {
		return 0, 0, 0, fmt.Errorf("flatidx: implausible item count %d", nItems)
	}
	sizes := levelSizes(nItems)
	wantNodes := 0
	for _, s := range sizes {
		wantNodes += s
	}
	if nNodes != wantNodes || height != len(sizes) {
		return 0, 0, 0, fmt.Errorf("flatidx: header claims %d nodes height %d, layout for %d items wants %d nodes height %d",
			nNodes, height, nItems, wantNodes, len(sizes))
	}
	return nNodes, nItems, height, nil
}

// slabSize is the byte length of a slab with the given counts.
func slabSize(nNodes, nItems int) int {
	return headerSize + nNodes*nodeSize + nItems*itemSize
}

// CheckInvariants re-validates the packed structure: the file CRC when the
// snapshot is file-backed (the lazy half of the per-open header check), the
// stored child layout against the deterministic packing for the item count,
// leaf markers exactly on the leaf level, every node rect finite and
// ordered, every item inside its leaf's rect, and every child rect inside
// its parent's. An error means the slab is corrupt (a violated rect
// invariant would silently false-dismiss queries). The fallback Load path
// runs this eagerly; the mmap path defers it to Verify/Repair so opening
// stays O(header).
func (s *Snapshot) CheckInvariants() error {
	if s.crcSet {
		if got := crc32.ChecksumIEEE(s.slab); got != s.wantCRC {
			return fmt.Errorf("flatidx: snapshot checksum mismatch (got %08x want %08x)", got, s.wantCRC)
		}
	}
	sizes := levelSizes(s.nItems)
	levelStart := make([]int, len(sizes))
	for ℓ := 1; ℓ < len(sizes); ℓ++ {
		levelStart[ℓ] = levelStart[ℓ-1] + sizes[ℓ-1]
	}
	var lo, hi, clo, chi, p [4]float64
	for ℓ, size := range sizes {
		leaf := ℓ == len(sizes)-1
		childCount := s.nItems
		if !leaf {
			childCount = sizes[ℓ+1]
		}
		for w := 0; w < size; w++ {
			g := levelStart[ℓ] + w
			first, count, gotLeaf := s.rawNodeFirstCount(g)
			wantFirst := w * Fanout
			wantCount := childCount - wantFirst
			if wantCount > Fanout {
				wantCount = Fanout
			}
			if !leaf {
				wantFirst += levelStart[ℓ+1]
			}
			if gotLeaf != leaf || first != wantFirst || count != wantCount {
				return fmt.Errorf("flatidx: node %d has first=%d count=%d leaf=%v, layout wants first=%d count=%d leaf=%v",
					g, first, count, gotLeaf, wantFirst, wantCount, leaf)
			}
			s.nodeRect(g, &lo, &hi)
			for d := 0; d < 4; d++ {
				// !(lo <= hi) also rejects NaN bounds.
				if !(lo[d] <= hi[d]) || math.IsInf(lo[d], 0) || math.IsInf(hi[d], 0) {
					return fmt.Errorf("flatidx: node %d rect dimension %d is non-finite or inverted", g, d)
				}
			}
			if leaf {
				for j := first; j < first+count; j++ {
					s.itemPoint(j, &p)
					for d := 0; d < 4; d++ {
						if !(p[d] >= lo[d] && p[d] <= hi[d]) {
							return fmt.Errorf("flatidx: item %d escapes its leaf rect (node %d, dimension %d)", j, g, d)
						}
					}
				}
			} else {
				for c := first; c < first+count; c++ {
					s.nodeRect(c, &clo, &chi)
					for d := 0; d < 4; d++ {
						if !(clo[d] >= lo[d] && chi[d] <= hi[d]) {
							return fmt.Errorf("flatidx: child %d escapes its parent rect (node %d, dimension %d)", c, g, d)
						}
					}
				}
			}
		}
	}
	return nil
}

// Bytes returns the snapshot's backing slab. The caller must treat it as
// read-only; it is the exact byte sequence Save persists.
func (s *Snapshot) Bytes() []byte { return s.slab }

// Len returns the number of packed items.
func (s *Snapshot) Len() int { return s.nItems }

// Generation returns the snapshot generation recorded at Build time.
func (s *Snapshot) Generation() uint64 { return s.gen }

// ---- slab accessors ----

func (s *Snapshot) f64(off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(s.slab[off:]))
}

// nodeFirstCount returns node n's child range. It is computed from the
// deterministic layout (levelStart/levelSize), not read from the slab: the
// stored first/count fields exist for format self-description and are
// cross-checked by CheckInvariants, but the walk never trusts them — a
// body-corrupted slab admitted by the lazy header check can therefore
// never produce an out-of-bounds child index.
func (s *Snapshot) nodeFirstCount(n int) (first, count int, leaf bool) {
	ℓ := len(s.levelStart) - 1
	for s.levelStart[ℓ] > n {
		ℓ--
	}
	w := n - s.levelStart[ℓ]
	leaf = ℓ == len(s.levelStart)-1
	childCount := s.nItems
	if !leaf {
		childCount = s.levelSize[ℓ+1]
	}
	first = w * Fanout
	count = childCount - first
	if count > Fanout {
		count = Fanout
	}
	if !leaf {
		first += s.levelStart[ℓ+1]
	}
	return first, count, leaf
}

// rawNodeFirstCount reads node n's stored child-range fields from the slab;
// CheckInvariants compares them against the computed layout.
func (s *Snapshot) rawNodeFirstCount(n int) (first, count int, leaf bool) {
	off := headerSize + n*nodeSize
	first = int(binary.LittleEndian.Uint32(s.slab[off+64:]))
	cf := binary.LittleEndian.Uint32(s.slab[off+68:])
	return first, int(cf &^ uint32(leafBit)), cf&leafBit != 0
}

func (s *Snapshot) nodeRect(n int, lo, hi *[4]float64) {
	off := headerSize + n*nodeSize
	for d := 0; d < 4; d++ {
		lo[d] = s.f64(off + d*8)
		hi[d] = s.f64(off + 32 + d*8)
	}
}

func (s *Snapshot) itemPoint(j int, p *[4]float64) {
	off := s.itemsOff + j*itemSize
	for d := 0; d < 4; d++ {
		p[d] = s.f64(off + d*8)
	}
}

func (s *Snapshot) item(j int) Entry {
	return getItem(s.slab[s.itemsOff+j*itemSize:])
}

// putItem and getItem are the itemSize-byte item encoding the slab's item
// region and the snapshot file's delta section share.
func putItem(b []byte, e Entry) {
	for d := 0; d < 4; d++ {
		binary.LittleEndian.PutUint64(b[d*8:], math.Float64bits(e.Point[d]))
	}
	binary.LittleEndian.PutUint32(b[32:], uint32(e.ID))
}

func getItem(b []byte) Entry {
	var e Entry
	for d := 0; d < 4; d++ {
		e.Point[d] = math.Float64frombits(binary.LittleEndian.Uint64(b[d*8:]))
	}
	e.ID = seq.ID(binary.LittleEndian.Uint32(b[32:]))
	return e
}

// nodeIntersects mirrors rtree.Rect.Intersects on closed rects: false iff
// the node rect and [lo, hi] are disjoint along some axis.
func (s *Snapshot) nodeIntersects(n int, lo, hi *[4]float64) bool {
	off := headerSize + n*nodeSize
	for d := 0; d < 4; d++ {
		if lo[d] > s.f64(off+32+d*8) || s.f64(off+d*8) > hi[d] {
			return false
		}
	}
	return true
}

// nodeContainsPoint reports whether p lies inside node n's closed rect.
func (s *Snapshot) nodeContainsPoint(n int, p *[4]float64) bool {
	off := headerSize + n*nodeSize
	for d := 0; d < 4; d++ {
		if p[d] < s.f64(off+d*8) || p[d] > s.f64(off+32+d*8) {
			return false
		}
	}
	return true
}

// nodeDistLInf is the L∞ minimum distance from p to node n's rect — the
// same axis-gap maximum rtree.MinDist computes under NormLInf, so the k-NN
// walk streams bit-identical lower bounds.
func (s *Snapshot) nodeDistLInf(n int, p *[4]float64) float64 {
	off := headerSize + n*nodeSize
	max := 0.0
	for d := 0; d < 4; d++ {
		var g float64
		if lo := s.f64(off + d*8); p[d] < lo {
			g = lo - p[d]
		} else if hi := s.f64(off + 32 + d*8); p[d] > hi {
			g = p[d] - hi
		}
		if g > max {
			max = g
		}
	}
	return max
}

// itemDistLInf is the L∞ distance from p to item j's point.
func (s *Snapshot) itemDistLInf(j int, p *[4]float64) float64 {
	off := s.itemsOff + j*itemSize
	max := 0.0
	for d := 0; d < 4; d++ {
		g := s.f64(off+d*8) - p[d]
		if g < 0 {
			g = -g
		}
		if g > max {
			max = g
		}
	}
	return max
}

// appendRange appends every live item inside the closed rect [lo, hi] to
// dst, skipping tombstoned entries. Allocation-free beyond dst growth.
func (s *Snapshot) appendRange(dst []Entry, lo, hi *[4]float64, dels map[Entry]struct{}) []Entry {
	if s.nItems == 0 {
		return dst
	}
	return s.searchNode(0, dst, lo, hi, dels)
}

func (s *Snapshot) searchNode(n int, dst []Entry, lo, hi *[4]float64, dels map[Entry]struct{}) []Entry {
	first, count, leaf := s.nodeFirstCount(n)
	if leaf {
		for j := first; j < first+count; j++ {
			off := s.itemsOff + j*itemSize
			var e Entry
			in := true
			for d := 0; d < 4; d++ {
				v := s.f64(off + d*8)
				if v < lo[d] || v > hi[d] {
					in = false
					break
				}
				e.Point[d] = v
			}
			if !in {
				continue
			}
			e.ID = seq.ID(binary.LittleEndian.Uint32(s.slab[off+32:]))
			if len(dels) != 0 {
				if _, dead := dels[e]; dead {
					continue
				}
			}
			dst = append(dst, e)
		}
		return dst
	}
	for c := first; c < first+count; c++ {
		if s.nodeIntersects(c, lo, hi) {
			dst = s.searchNode(c, dst, lo, hi, dels)
		}
	}
	return dst
}

// contains reports whether the snapshot holds exactly e (point and ID).
func (s *Snapshot) contains(e Entry) bool {
	if s.nItems == 0 {
		return false
	}
	return s.containsNode(0, &e)
}

func (s *Snapshot) containsNode(n int, e *Entry) bool {
	first, count, leaf := s.nodeFirstCount(n)
	if leaf {
		for j := first; j < first+count; j++ {
			off := s.itemsOff + j*itemSize
			if seq.ID(binary.LittleEndian.Uint32(s.slab[off+32:])) != e.ID {
				continue
			}
			match := true
			for d := 0; d < 4; d++ {
				if s.f64(off+d*8) != e.Point[d] {
					match = false
					break
				}
			}
			if match {
				return true
			}
		}
		return false
	}
	for c := first; c < first+count; c++ {
		if s.nodeContainsPoint(c, &e.Point) && s.containsNode(c, e) {
			return true
		}
	}
	return false
}
