package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/dtw"
	"repro/internal/flatidx"
	"repro/internal/seq"
	"repro/internal/seqdb"
)

// SubseqIndex implements the paper's §6 subsequence-matching extension: "It
// builds the same index on the feature vectors from subsequences rather
// than whole sequences. It also applies the same algorithm for query
// processing."
//
// The index enumerates sliding windows of the configured lengths (advanced
// by Step) over every data sequence and bulk-loads each window's 4-tuple
// feature vector into the flat engine the database serves from, keyed by
// window number. A range query with tolerance ε returns, without false
// dismissal over the indexed window set, every window whose time warping
// distance to the query is at most ε. Windows of a record removed after the
// build stay in the index and are skipped at refinement.
type SubseqIndex struct {
	DB   *seqdb.DB
	Base seq.Base

	idx     *flatidx.Index
	windows []windowRef // by window number, the ID of its flat entry
	lens    []int
}

// windowRef locates one window inside its source sequence: an indexed
// window, or a substring the ST-Filter traversal admits.
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

// SubMatchLess is the one order of subsequence matches: distance, then
// source ID, then offset, then length.
func SubMatchLess(a, b SubMatch) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	if a.Offset != b.Offset {
		return a.Offset < b.Offset
	}
	return a.Len < b.Len
}

// SubseqResult carries subsequence matches and query statistics.
type SubseqResult struct {
	Matches []SubMatch
	Stats   QueryStats
}

// subseqBytesPerWindow is what one indexed window costs a build: 363 bytes
// allocated while it runs (the feature entries and window list as they grow,
// the bulk load), of which 55 stay live in the index (measured over
// 1 235 200 windows: 200 stored sequences of 128, lengths 1–64, step 1).
const subseqBytesPerWindow = 363

// MaxSubseqWindows is the most windows one subsequence build indexes,
// summed over the shards of a sharded database: 1 GiB of allocation at
// subseqBytesPerWindow, ≈ 2.96 M windows and ≈ 163 MB live. One window
// length of 1 with step 1 over a 100 000 × 128 corpus is 12.8 M windows,
// so a build over a corpus that size names a few long windows or a step.
const MaxSubseqWindows = (1 << 30) / subseqBytesPerWindow

// ErrSubseqBuildRefused is wrapped by every refusal of CheckSubseqBuild: a
// build no database accepts, as opposed to a storage failure during its
// scan. Test with errors.Is.
var ErrSubseqBuildRefused = errors.New("core: subsequence build refused")

// CheckSubseqBuild validates a build's window lengths and refuses it when
// the windows it would index over dbs — counted from the stored record
// lengths before anything is scanned or allocated — exceed
// MaxSubseqWindows. The error names the count and wraps
// ErrSubseqBuildRefused.
func CheckSubseqBuild(dbs []*seqdb.DB, windowLens []int, step int) error {
	if len(windowLens) == 0 {
		return fmt.Errorf("%w: no window lengths given", ErrSubseqBuildRefused)
	}
	seen := make(map[int]bool, len(windowLens))
	for _, w := range windowLens {
		if w < 1 {
			return fmt.Errorf("%w: invalid window length %d", ErrSubseqBuildRefused, w)
		}
		if seen[w] {
			return fmt.Errorf("%w: window length %d given twice", ErrSubseqBuildRefused, w)
		}
		seen[w] = true
	}
	total := 0
	for _, db := range dbs {
		db.RecordLens(func(n int) { total = addWindows(total, n, windowLens, step) })
	}
	if total > MaxSubseqWindows {
		return fmt.Errorf("%w: %d windows is over the budget of %d", ErrSubseqBuildRefused, total, MaxSubseqWindows)
	}
	return nil
}

// addWindows adds to total the windows of each length in windowLens a record
// of n elements holds at this step (≤ 0 means 1): (n − w)/step + 1 for each
// w ≤ n, saturating at math.MaxInt instead of overflowing.
func addWindows(total, n int, windowLens []int, step int) int {
	step = max(step, 1)
	for _, w := range windowLens {
		if w < 1 || w > n {
			continue
		}
		k := (n-w)/step + 1
		if total > math.MaxInt-k {
			return math.MaxInt
		}
		total += k
	}
	return total
}

// BuildSubseqIndex indexes sliding windows of each length in windowLens
// (advanced by step positions; step 0 means 1) over every sequence in db.
// A length may appear once: a repeated one would index every window twice
// and return each match twice. A build over MaxSubseqWindows windows is
// refused before it starts (CheckSubseqBuild).
func BuildSubseqIndex(db *seqdb.DB, base seq.Base, windowLens []int, step int) (*SubseqIndex, error) {
	if err := CheckSubseqBuild([]*seqdb.DB{db}, windowLens, step); err != nil {
		return nil, err
	}
	if step <= 0 {
		step = 1
	}
	si := &SubseqIndex{
		DB:   db,
		Base: base,
		idx:  flatidx.New(flatidx.Options{MergeThreshold: -1}),
		lens: append([]int(nil), windowLens...),
	}
	var entries []flatidx.Entry
	err := db.Scan(func(id seq.ID, s seq.Sequence) error {
		for _, w := range windowLens {
			if w > len(s) {
				continue
			}
			// Count the windows rather than add step to an offset, which
			// overflows when step is near math.MaxInt.
			for i := 0; i <= (len(s)-w)/step; i++ {
				off := i * step
				f, err := seq.ExtractFeature(s[off : off+w])
				if err != nil {
					return err
				}
				entries = append(entries, flatidx.Entry{ID: seq.ID(len(si.windows)), Point: f.Vector()})
				si.windows = append(si.windows, windowRef{id: id, offset: int32(off), length: int32(w)})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := si.idx.BulkLoad(entries); err != nil {
		return nil, err
	}
	return si, nil
}

// NumWindows returns the number of indexed windows.
func (si *SubseqIndex) NumWindows() int { return len(si.windows) }

// WindowLengths returns the indexed window lengths.
func (si *SubseqIndex) WindowLengths() []int { return append([]int(nil), si.lens...) }

// Search returns every indexed window of a live record whose time warping
// distance to q is at most epsilon, in SubMatchLess order.
func (si *SubseqIndex) Search(q seq.Sequence, epsilon float64) (*SubseqResult, error) {
	if q.Empty() {
		return nil, seq.ErrEmpty
	}
	start := time.Now()
	fq, err := seq.ExtractFeature(q)
	if err != nil {
		return nil, err
	}
	lo, hi := queryRect(fq, epsilon)
	hits := si.idx.AppendRange(nil, &lo, &hi)
	cands := make([]windowRef, len(hits))
	for i, e := range hits {
		cands[i] = si.windows[e.ID]
	}
	res := &SubseqResult{}
	res.Stats.Candidates = len(cands)
	if res.Matches, err = refineWindows(si.DB, si.Base, q, epsilon, cands, &res.Stats); err != nil {
		return nil, err
	}
	res.Stats.Results = len(res.Matches)
	res.Stats.Wall = time.Since(start)
	return res, nil
}

// refineWindows is the window-refine loop of both subsequence methods. It
// sorts cands by (ID, offset, length), fetches each source record once into
// a pooled scratch, and keeps every window whose exact distance to q is
// within epsilon, in SubMatchLess order. A record removed since the
// candidates were collected is skipped, as the whole-matching cascade skips
// a dangling index entry, and its windows are not DTW calls.
func refineWindows(db *seqdb.DB, base seq.Base, q seq.Sequence, epsilon float64,
	cands []windowRef, stats *QueryStats) ([]SubMatch, error) {
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.id != b.id {
			return a.id < b.id
		}
		if a.offset != b.offset {
			return a.offset < b.offset
		}
		return a.length < b.length
	})
	sc := seqdb.AcquireScratch()
	defer sc.Release()
	r := dtw.AcquireRefiner()
	defer r.Release()
	var matches []SubMatch
	var cur seq.Sequence // aliases sc until the next Fetch; nil for a removed record
	curID := seq.InvalidID
	for _, c := range cands {
		if c.id != curID {
			s, err := db.Fetch(c.id, sc)
			if errors.Is(err, seqdb.ErrDeleted) || errors.Is(err, seqdb.ErrNotFound) {
				s = nil
			} else if err != nil {
				return nil, err
			}
			cur, curID = s, c.id
		}
		if cur == nil {
			continue
		}
		stats.DTWCalls++
		if d, v := r.DistanceWithin(cur[c.offset:c.offset+c.length], q, base, epsilon); v == dtw.VerdictWithin {
			matches = append(matches, SubMatch{ID: c.id, Offset: int(c.offset), Len: int(c.length), Dist: d})
		}
	}
	sort.Slice(matches, func(i, j int) bool { return SubMatchLess(matches[i], matches[j]) })
	return matches, nil
}

// Close releases the index.
func (si *SubseqIndex) Close() error { return si.idx.Close() }
