package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/dtw"
	"repro/internal/pagefile"
	"repro/internal/rtree"
	"repro/internal/seq"
	"repro/internal/seqdb"
)

// SubseqIndex implements the paper's §6 subsequence-matching extension: "It
// builds the same index on the feature vectors from subsequences rather
// than whole sequences. It also applies the same algorithm for query
// processing."
//
// The index enumerates sliding windows of the configured lengths (advanced
// by Step) over every data sequence and inserts each window's 4-tuple
// feature vector. A range query with tolerance ε returns, without false
// dismissal over the indexed window set, every window whose time warping
// distance to the query is at most ε.
type SubseqIndex struct {
	DB   *seqdb.DB
	Base seq.Base

	tree    *rtree.Tree
	windows []windowRef
	lens    []int
	step    int
}

// windowRef locates one indexed window inside its source sequence.
type windowRef struct {
	id     seq.ID
	offset int32
	length int32
}

// SubMatch is one qualifying subsequence.
type SubMatch struct {
	ID     seq.ID  // source sequence
	Offset int     // window start within the source
	Len    int     // window length
	Dist   float64 // exact time warping distance to the query
}

// SubseqResult carries subsequence matches and query statistics.
type SubseqResult struct {
	Matches []SubMatch
	Stats   QueryStats
}

// BuildSubseqIndex indexes sliding windows of each length in windowLens
// (advanced by step positions; step 0 means 1) over every sequence in db.
func BuildSubseqIndex(db *seqdb.DB, base seq.Base, windowLens []int, step int) (*SubseqIndex, error) {
	if len(windowLens) == 0 {
		return nil, fmt.Errorf("core: no window lengths given")
	}
	for _, w := range windowLens {
		if w < 1 {
			return nil, fmt.Errorf("core: invalid window length %d", w)
		}
	}
	if step <= 0 {
		step = 1
	}
	pool, err := pagefile.NewPool(pagefile.NewMemBackend(pagefile.DefaultPageSize),
		pagefile.DefaultPageSize, 64)
	if err != nil {
		return nil, err
	}
	tree, err := rtree.Create(pool, 4, rtree.Options{})
	if err != nil {
		pool.Close()
		return nil, err
	}
	si := &SubseqIndex{
		DB:   db,
		Base: base,
		tree: tree,
		lens: append([]int(nil), windowLens...),
		step: step,
	}
	var entries []rtree.Entry
	err = db.Scan(func(id seq.ID, s seq.Sequence) error {
		for _, w := range windowLens {
			for off := 0; off+w <= len(s); off += step {
				f, err := seq.ExtractFeature(s[off : off+w])
				if err != nil {
					return err
				}
				ref := windowRef{id: id, offset: int32(off), length: int32(w)}
				v := f.Vector()
				entries = append(entries, rtree.Entry{
					Rect:  rtree.NewPoint(v[:]),
					Child: uint32(len(si.windows)),
				})
				si.windows = append(si.windows, ref)
			}
		}
		return nil
	})
	if err != nil {
		tree.Close()
		return nil, err
	}
	if err := tree.BulkLoad(entries); err != nil {
		tree.Close()
		return nil, err
	}
	return si, nil
}

// NumWindows returns the number of indexed windows.
func (si *SubseqIndex) NumWindows() int { return len(si.windows) }

// WindowLengths returns the indexed window lengths.
func (si *SubseqIndex) WindowLengths() []int { return append([]int(nil), si.lens...) }

// Search returns every indexed window whose time warping distance to q is
// at most epsilon, sorted by distance (then source id, then offset).
func (si *SubseqIndex) Search(q seq.Sequence, epsilon float64) (*SubseqResult, error) {
	if q.Empty() {
		return nil, seq.ErrEmpty
	}
	start := time.Now()
	fq, err := seq.ExtractFeature(q)
	if err != nil {
		return nil, err
	}
	center := fq.Vector()
	lo := make([]float64, 4)
	hi := make([]float64, 4)
	for i := range center {
		lo[i] = center[i] - epsilon
		hi[i] = center[i] + epsilon
	}
	query, err := rtree.NewRect(lo, hi)
	if err != nil {
		return nil, err
	}
	res := &SubseqResult{}
	var candidates []windowRef
	if err := si.tree.Search(query, func(_ rtree.Rect, wid uint32) bool {
		candidates = append(candidates, si.windows[wid])
		return true
	}); err != nil {
		return nil, err
	}
	res.Stats.Candidates = len(candidates)

	// Refine, fetching each source sequence once per contiguous candidate
	// group (candidates are grouped by sequence to bound fetches).
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].id != candidates[j].id {
			return candidates[i].id < candidates[j].id
		}
		if candidates[i].offset != candidates[j].offset {
			return candidates[i].offset < candidates[j].offset
		}
		return candidates[i].length < candidates[j].length
	})
	sc := seqdb.AcquireScratch()
	defer sc.Release()
	r := dtw.AcquireRefiner()
	defer r.Release()
	var cur seq.Sequence // aliases sc until the next Fetch
	curID := seq.InvalidID
	for _, ref := range candidates {
		if ref.id != curID {
			s, err := si.DB.Fetch(ref.id, sc)
			if err != nil {
				return nil, err
			}
			cur, curID = s, ref.id
		}
		window := cur[ref.offset : ref.offset+ref.length]
		res.Stats.DTWCalls++
		if d, v := r.DistanceWithin(window, q, si.Base, epsilon); v == dtw.VerdictWithin {
			res.Matches = append(res.Matches, SubMatch{
				ID:     ref.id,
				Offset: int(ref.offset),
				Len:    int(ref.length),
				Dist:   d,
			})
		}
	}
	sort.Slice(res.Matches, func(i, j int) bool {
		a, b := res.Matches[i], res.Matches[j]
		if a.Dist != b.Dist {
			return a.Dist < b.Dist
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.Offset < b.Offset
	})
	res.Stats.Results = len(res.Matches)
	res.Stats.Wall = time.Since(start)
	return res, nil
}

// Close releases the index.
func (si *SubseqIndex) Close() error { return si.tree.Close() }
