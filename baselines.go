package twsim

import (
	"repro/internal/core"
	"repro/internal/seq"
)

// Searcher is a whole-matching similarity search method. All methods
// constructed by this package are exact except the FastMap baseline, which
// can produce false dismissals (the paper's §3.3) and exists for
// comparison experiments.
type Searcher interface {
	Name() string
	Search(query []float64, epsilon float64) (*Result, error)
}

// searcherAdapter lifts an internal core.Searcher over db's heap and index
// to the public interface. inner runs under db's read lock, once per call:
// a method that reads db.index or db.envs builds its core searcher there, so
// it searches what a Repair put in place, not what the database held when
// the adapter was constructed.
type searcherAdapter struct {
	db    *DB
	inner func() core.Searcher
}

func (a searcherAdapter) Name() string {
	a.db.mu.RLock()
	defer a.db.mu.RUnlock()
	return a.inner().Name()
}

func (a searcherAdapter) Search(query []float64, epsilon float64) (*Result, error) {
	a.db.mu.RLock()
	defer a.db.mu.RUnlock()
	return a.inner().Search(seq.Sequence(query), epsilon)
}

// fixedSearcher adapts a core searcher that holds nothing of db a writer
// replaces (the heap, a structure of its own).
func (db *DB) fixedSearcher(s core.Searcher) Searcher {
	return searcherAdapter{db, func() core.Searcher { return s }}
}

// TWSimSearcher returns the paper's method as a Searcher, for side-by-side
// benchmarking against the baselines.
func (db *DB) TWSimSearcher() Searcher {
	return searcherAdapter{db, func() core.Searcher {
		return &core.TWSimSearch{DB: db.store, Index: db.index, Base: db.base, Envs: db.envs}
	}}
}

// BaselineNaiveScan returns the sequential-scan baseline (§3.1): full DTW
// against every stored sequence.
func (db *DB) BaselineNaiveScan() Searcher {
	return db.fixedSearcher(&core.NaiveScan{DB: db.store, Base: db.base})
}

// BaselineLBScan returns Yi et al.'s LB-Scan baseline (§3.2): a sequential
// scan filtered by the O(n+m) lower bound before full DTW.
func (db *DB) BaselineLBScan() Searcher {
	return db.fixedSearcher(&core.LBScan{DB: db.store, Base: db.base})
}

// STFilter is the suffix-tree method of Park et al. (§3.4): whole matching
// via a categorized generalized suffix tree, plus SearchSubsequences, the
// method's original subsequence-matching form.
type STFilter struct {
	db    *DB // searches refine against db's heap, under its read lock
	inner *core.STFilter
}

// NewSTFilter builds the suffix-tree method over the current contents of
// the database with the given number of equal-width categories (the paper
// uses 100). Building scans the whole database and constructs a generalized
// suffix tree; sequences added afterwards are not visible.
func (db *DB) NewSTFilter(categories int) (*STFilter, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	f, err := core.BuildSTFilter(db.store, db.base, categories)
	if err != nil {
		return nil, err
	}
	return &STFilter{db: db, inner: f}, nil
}

// Name implements Searcher.
func (f *STFilter) Name() string { return f.inner.Name() }

// Search implements Searcher (whole matching).
func (f *STFilter) Search(query []float64, epsilon float64) (*Result, error) {
	f.db.mu.RLock()
	defer f.db.mu.RUnlock()
	return f.inner.Search(seq.Sequence(query), epsilon)
}

// SearchSubsequences finds every subsequence (any offset, any length) of
// any stored sequence whose time warping distance to query is within
// epsilon — exact, via branch-and-bound suffix tree traversal.
func (f *STFilter) SearchSubsequences(query []float64, epsilon float64) (*SubseqResult, error) {
	f.db.mu.RLock()
	defer f.db.mu.RUnlock()
	return f.inner.SearchSubsequences(seq.Sequence(query), epsilon)
}

// BaselineSTFilter builds the suffix-tree baseline (§3.4) as a plain
// Searcher for side-by-side whole-matching benchmarks. See NewSTFilter for
// the full interface including subsequence matching.
func (db *DB) BaselineSTFilter(categories int) (Searcher, error) {
	return db.NewSTFilter(categories)
}

// AdaptiveSearcher returns the cost-based hybrid: the paper's index filter
// with refinement via per-candidate fetches or one sequential sweep,
// whichever the disk cost model predicts is cheaper. Exact either way.
func (db *DB) AdaptiveSearcher() Searcher {
	return searcherAdapter{db, func() core.Searcher {
		return &core.AdaptiveSearch{DB: db.store, Index: db.index, Base: db.base}
	}}
}

// BaselineFastMap builds the FastMap method (§3.3) over the current
// contents of the database: a k-dimensional FastMap embedding under DTW,
// indexed in an R-tree. The returned Searcher CAN MISS qualifying
// sequences; it is provided to reproduce the paper's false-dismissal
// demonstration.
func (db *DB) BaselineFastMap(k int, seed int64) (Searcher, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	f, err := core.BuildFastMapSearch(db.store, db.base, k, seed)
	if err != nil {
		return nil, err
	}
	return db.fixedSearcher(f), nil
}
