package core

import (
	"math/rand"
	"time"

	"repro/internal/dtw"
	"repro/internal/fastmap"
	"repro/internal/pagefile"
	"repro/internal/rtree"
	"repro/internal/seq"
	"repro/internal/seqdb"
)

// FastMapSearch is the FastMap method of Yi et al. (§3.3): sequences are
// embedded into k-dimensional Euclidean space with FastMap over the DTW
// distance and indexed in an R-tree; a query projects into the same space
// and runs a range query before exact refinement.
//
// Because the embedding does not lower-bound DTW, qualifying sequences can
// fall outside the query cube: FastMapSearch may produce FALSE DISMISSALS.
// It is included to reproduce the paper's argument for excluding it, not as
// an exact method.
type FastMapSearch struct {
	DB   *seqdb.DB
	Map  *fastmap.Map
	Tree *rtree.Tree
	Base seq.Base
	// Slack widens the range query cube by a multiplicative factor
	// (1 = the plain ε cube). Larger slack trades candidates for fewer
	// dismissals; no finite slack guarantees zero.
	Slack float64
}

// BuildFastMapSearch fits a k-dimensional FastMap embedding of every
// sequence in db (using DTW with the given base as the distance) and bulk
// loads the embedded points into an R-tree.
func BuildFastMapSearch(db *seqdb.DB, base seq.Base, k int, seed int64) (*FastMapSearch, error) {
	var data []seq.Sequence
	var ids []seq.ID
	if err := db.Scan(func(id seq.ID, s seq.Sequence) error {
		data = append(data, s.Clone())
		ids = append(ids, id)
		return nil
	}); err != nil {
		return nil, err
	}
	// One Refiner per call, not per build: Map.Project calls dist again at
	// query time.
	dist := func(a, b seq.Sequence) float64 {
		r := dtw.AcquireRefiner()
		defer r.Release()
		d, _ := r.BandDistanceWithin(a, b, base, -1, dtw.Inf)
		return d
	}
	m, coords, err := fastmap.Fit(data, k, dist, 5, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	pool, err := pagefile.NewPool(pagefile.NewMemBackend(pagefile.DefaultPageSize), pagefile.DefaultPageSize, 64)
	if err != nil {
		return nil, err
	}
	tree, err := rtree.Create(pool, k, rtree.Options{})
	if err != nil {
		pool.Close()
		return nil, err
	}
	entries := make([]rtree.Entry, len(ids))
	for i, id := range ids {
		entries[i] = rtree.Entry{Rect: rtree.NewPoint(coords[i]), Child: uint32(id)}
	}
	if err := tree.BulkLoad(entries); err != nil {
		tree.Close()
		return nil, err
	}
	return &FastMapSearch{DB: db, Map: m, Tree: tree, Base: base, Slack: 1}, nil
}

// Name implements Searcher.
func (f *FastMapSearch) Name() string { return "FastMap" }

// Search implements Searcher. The result may omit qualifying sequences.
func (f *FastMapSearch) Search(q seq.Sequence, epsilon float64) (*Result, error) {
	start := time.Now()
	dbBefore := f.DB.Stats()
	idxBefore := f.Tree.Stats()
	center := f.Map.Project(q)
	slack := f.Slack
	if slack <= 0 {
		slack = 1
	}
	lo := make([]float64, len(center))
	hi := make([]float64, len(center))
	for i, c := range center {
		lo[i] = c - epsilon*slack
		hi[i] = c + epsilon*slack
	}
	query, err := rtree.NewRect(lo, hi)
	if err != nil {
		return nil, err
	}
	var candidates []seq.ID
	if err := f.Tree.Search(query, func(_ rtree.Rect, id uint32) bool {
		candidates = append(candidates, seq.ID(id))
		return true
	}); err != nil {
		return nil, err
	}
	res := &Result{}
	res.Stats.Candidates = len(candidates)
	res.Matches, err = refine(nil, f.DB, f.Base, q, epsilon, candidates, false, 0, nil, &res.Stats)
	if err != nil {
		return nil, err
	}
	dbAfter := f.DB.Stats()
	idxAfter := f.Tree.Stats()
	res.Stats.Results = len(res.Matches)
	res.Stats.DataReads = dbAfter.Reads - dbBefore.Reads
	res.Stats.DataMisses = dbAfter.Misses - dbBefore.Misses
	res.Stats.DataSeqMisses = dbAfter.SeqMisses - dbBefore.SeqMisses
	res.Stats.IndexReads = idxAfter.Reads - idxBefore.Reads
	res.Stats.IndexMisses = idxAfter.Misses - idxBefore.Misses
	res.Stats.IndexSeqMisses = idxAfter.SeqMisses - idxBefore.SeqMisses
	res.Stats.Wall = time.Since(start)
	return res, nil
}
