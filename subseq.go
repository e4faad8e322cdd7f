package twsim

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/seqdb"
	"repro/internal/shard"
)

// SubMatch is one qualifying subsequence: a window of a stored sequence
// whose time warping distance to the query is within tolerance.
type SubMatch = core.SubMatch

// SubseqResult carries subsequence matches plus query statistics.
type SubseqResult = core.SubseqResult

// subseqSearcher is the engine behind a SubseqIndex: the single-database
// window index (core.SubseqIndex) or the sharded composite that fans out
// over per-shard window indexes and merges.
type subseqSearcher interface {
	Search(q seq.Sequence, epsilon float64) (*core.SubseqResult, error)
	NumWindows() int
	Close() error
}

// SubseqIndex supports subsequence matching, the paper's §6 extension: the
// same 4-tuple feature index built over sliding windows of the stored
// sequences instead of whole sequences, queried with the same algorithm.
// The search is exact (no false dismissal) over the indexed window set.
// Built by DB.BuildSubseqIndex or ShardedDB.BuildSubseqIndex; results are
// bit-identical across the two (modulo the sharded global-ID space). The
// index reads the heap it was built over, so Search takes that database's
// read lock and is safe beside writers.
type SubseqIndex struct {
	inner subseqSearcher
	db    *DB // whose heap inner reads; nil for the sharded composite (its parts lock their own shard)
}

// BuildSubseqIndex indexes sliding windows of each length in windowLens
// over the database's current contents, advancing the window start by step
// positions (step <= 0 means 1). Sequences added to the database afterwards
// are not visible to the returned index. A build of more than
// core.MaxSubseqWindows windows, counted from the stored lengths, is refused
// before anything is scanned.
func (db *DB) BuildSubseqIndex(windowLens []int, step int) (*SubseqIndex, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	inner, err := core.BuildSubseqIndex(db.store, seq.LInf, windowLens, step)
	if err != nil {
		return nil, err
	}
	return &SubseqIndex{inner: inner, db: db}, nil
}

// BuildSubseqIndex builds one window index per shard (fanned out on the
// engine's worker pool, each shard's own BuildSubseqIndex) and composes them
// behind one SubseqIndex: searches fan out the same way, per-shard matches
// have their source IDs lifted to the global space, and the merged list is
// re-sorted by core.SubMatchLess — bit-identical to the single-DB index over
// the same logical contents. The window budget (core.MaxSubseqWindows) holds
// for the sum over the shards, counted before the fan-out.
func (s *ShardedDB) BuildSubseqIndex(windowLens []int, step int) (*SubseqIndex, error) {
	stores := make([]*seqdb.DB, len(s.dbs))
	for si, db := range s.dbs {
		stores[si] = db.store
	}
	if err := core.CheckSubseqBuild(stores, windowLens, step); err != nil {
		return nil, err
	}
	inners := make([]*SubseqIndex, len(s.dbs))
	err := s.eng.FanOut(func(si int) error {
		inner, err := s.dbs[si].BuildSubseqIndex(windowLens, step)
		if err != nil {
			return fmt.Errorf("twsim: shard %d: %w", si, err)
		}
		inners[si] = inner
		return nil
	})
	if err != nil {
		for _, in := range inners {
			if in != nil {
				in.Close()
			}
		}
		return nil, err
	}
	return &SubseqIndex{inner: &shardedSubseq{eng: s.eng, inners: inners}}, nil
}

// shardedSubseq fans a subsequence search out across per-shard window
// indexes and merges the partial results into the global ID space.
type shardedSubseq struct {
	eng    *shard.Engine
	inners []*SubseqIndex
}

func (ss *shardedSubseq) Search(q seq.Sequence, epsilon float64) (*core.SubseqResult, error) {
	start := time.Now()
	perShard := make([]*core.SubseqResult, len(ss.inners))
	err := ss.eng.FanOut(func(si int) error {
		r, err := ss.inners[si].search(q, epsilon)
		if err != nil {
			return fmt.Errorf("twsim: shard %d: %w", si, err)
		}
		perShard[si] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &core.SubseqResult{}
	for si, r := range perShard {
		for _, m := range r.Matches {
			m.ID = ss.eng.GlobalID(m.ID, si)
			out.Matches = append(out.Matches, m)
		}
		out.Stats.Add(r.Stats)
	}
	sort.Slice(out.Matches, func(i, j int) bool { return core.SubMatchLess(out.Matches[i], out.Matches[j]) })
	out.Stats.Results = len(out.Matches)
	out.Stats.Wall = time.Since(start)
	return out, nil
}

func (ss *shardedSubseq) NumWindows() int {
	total := 0
	for _, in := range ss.inners {
		total += in.NumWindows()
	}
	return total
}

func (ss *shardedSubseq) Close() error {
	var first error
	for _, in := range ss.inners {
		if err := in.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Search returns every indexed window whose time warping distance to query
// is at most epsilon, sorted by distance. Queries containing NaN or ±Inf
// are rejected with ErrNonFinite (a non-finite query feature would make
// every window invisible to the index filter), and so is a NaN epsilon; a
// negative epsilon is an error. A record removed after the build is skipped.
func (si *SubseqIndex) Search(query []float64, epsilon float64) (*SubseqResult, error) {
	if err := validateTolerance(epsilon); err != nil {
		return nil, err
	}
	if err := seq.CheckFinite(query); err != nil {
		return nil, err
	}
	return si.search(seq.Sequence(query), epsilon)
}

func (si *SubseqIndex) search(q seq.Sequence, epsilon float64) (*SubseqResult, error) {
	if si.db != nil {
		si.db.mu.RLock()
		defer si.db.mu.RUnlock()
	}
	return si.inner.Search(q, epsilon)
}

// NumWindows returns the number of indexed windows.
func (si *SubseqIndex) NumWindows() int { return si.inner.NumWindows() }

// Close releases the index.
func (si *SubseqIndex) Close() error { return si.inner.Close() }
