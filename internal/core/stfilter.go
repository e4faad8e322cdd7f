package core

import (
	"time"

	"repro/internal/categorize"
	"repro/internal/seq"
	"repro/internal/seqdb"
	"repro/internal/suffixtree"
)

// STFilter is the suffix-tree baseline (Park et al., §3.4) adapted to whole
// matching. Data sequences are converted to category sequences; a
// generalized suffix tree over them is traversed with a branch-and-bound
// time-warping DP where each category contributes its interval's minimum
// distance to the query element — a lower bound of the true per-element
// cost, so the traversal never dismisses a qualifying sequence.
//
// A sequence becomes a candidate when the traversal consumes its *entire*
// category string (the path ends at the sequence's terminator at full
// depth) with a DP value within epsilon; the exact DTW then refines
// candidates. The tree contains every suffix, which is why the method's
// filtering cost balloons for whole matching — the behaviour the paper
// reports.
type STFilter struct {
	DB   *seqdb.DB
	Cat  categorize.Scheme
	Tree *suffixtree.Tree
	Base seq.Base
}

// treeNodesPerPage is the modeled packing density of suffix-tree nodes on
// 1 KB disk pages (~32 bytes per node: offsets, child pointer, sibling
// pointer, suffix link).
const treeNodesPerPage = 32

// BuildSTFilter categorizes every sequence in db with numCategories
// equal-width categories (the paper's experiments use 100) and builds the
// generalized suffix tree.
func BuildSTFilter(db *seqdb.DB, base seq.Base, numCategories int) (*STFilter, error) {
	return buildSTFilter(db, base, func(data []seq.Sequence) (categorize.Scheme, error) {
		return categorize.FromData(data, numCategories)
	})
}

// BuildSTFilterQuantile is BuildSTFilter with equal-frequency (quantile)
// categories instead of equal-width ones — an ablation of the §3.4
// categorization choice. The traversal's no-false-dismissal property is
// preserved by the Scheme contract.
func BuildSTFilterQuantile(db *seqdb.DB, base seq.Base, numCategories int) (*STFilter, error) {
	return buildSTFilter(db, base, func(data []seq.Sequence) (categorize.Scheme, error) {
		return categorize.NewQuantile(data, numCategories)
	})
}

func buildSTFilter(db *seqdb.DB, base seq.Base,
	newScheme func([]seq.Sequence) (categorize.Scheme, error)) (*STFilter, error) {
	var data []seq.Sequence
	if err := db.Scan(func(_ seq.ID, s seq.Sequence) error {
		data = append(data, s.Clone())
		return nil
	}); err != nil {
		return nil, err
	}
	cat, err := newScheme(data)
	if err != nil {
		return nil, err
	}
	symbols := make([][]categorize.Symbol, len(data))
	for i, s := range data {
		symbols[i] = cat.Encode(s)
	}
	return &STFilter{
		DB:   db,
		Cat:  cat,
		Tree: suffixtree.New(symbols),
		Base: base,
	}, nil
}

// Name implements Searcher.
func (f *STFilter) Name() string { return "ST-Filter" }

// Search implements Searcher.
func (f *STFilter) Search(q seq.Sequence, epsilon float64) (*Result, error) {
	start := time.Now()
	dbBefore := f.DB.Stats()
	res := &Result{}
	candidates := f.collectCandidates(q, epsilon, &res.Stats)
	res.Stats.Candidates = len(candidates)
	var err error
	res.Matches, err = refine(nil, f.DB, f.Base, q, epsilon, candidates, false, 0, nil, &res.Stats)
	if err != nil {
		return nil, err
	}
	dbAfter := f.DB.Stats()
	res.Stats.Results = len(res.Matches)
	res.Stats.DataReads = dbAfter.Reads - dbBefore.Reads
	res.Stats.DataMisses = dbAfter.Misses - dbBefore.Misses
	res.Stats.DataSeqMisses = dbAfter.SeqMisses - dbBefore.SeqMisses
	// The suffix tree lives in memory here but would not in the paper's
	// setting (§3.4: the tree is abnormally large for whole matching).
	// Model its disk footprint: visited nodes packed treeNodesPerPage to a
	// page, charged as random reads by the cost model.
	res.Stats.TreePages = int64((res.Stats.TreeNodes + treeNodesPerPage - 1) / treeNodesPerPage)
	res.Stats.Wall = time.Since(start)
	return res, nil
}

// collectCandidates walks the suffix tree with the branch-and-bound DP.
func (f *STFilter) collectCandidates(q seq.Sequence, epsilon float64, stats *QueryStats) []seq.ID {
	if q.Empty() {
		return nil
	}
	m := len(q)
	seen := make(map[seq.ID]bool)
	var candidates []seq.ID

	// advance extends the DP by one symbol. row == nil encodes "no symbols
	// consumed yet". Returns the new row and whether any cell remains
	// within epsilon.
	advance := func(row []float64, sym int32) ([]float64, bool) {
		next := make([]float64, m)
		alive := false
		lo, hi := f.Cat.Interval(categorize.Symbol(sym))
		for j := 0; j < m; j++ {
			e := f.Base.Elem(0, seq.DistToRange(q[j], lo, hi))
			var best float64
			switch {
			case row == nil && j == 0:
				best = 0
			case row == nil:
				best = next[j-1]
			case j == 0:
				best = row[0]
			default:
				best = row[j]
				if row[j-1] < best {
					best = row[j-1]
				}
				if next[j-1] < best {
					best = next[j-1]
				}
			}
			if row == nil && j == 0 {
				next[j] = e
			} else {
				next[j] = f.Base.Combine(e, best)
			}
			if next[j] <= epsilon {
				alive = true
			}
		}
		return next, alive
	}

	var walk func(n *suffixtree.Node, row []float64, depth int)
	walk = func(n *suffixtree.Node, row []float64, depth int) {
		n.Children(func(_ int32, child *suffixtree.Node) bool {
			stats.TreeNodes++
			label := f.Tree.EdgeSymbols(child)
			cur := row
			d := depth
			for _, sym := range label {
				if suffixtree.IsTerminator(sym) {
					// The path spells a complete suffix of sequence id; it
					// is the whole sequence exactly when the depth matches.
					id := suffixtree.TerminatorID(sym)
					if d == f.Tree.SeqLen(id) && cur != nil && cur[m-1] <= epsilon && !seen[id] {
						seen[id] = true
						candidates = append(candidates, id)
					}
					return true // nothing relevant beyond a terminator
				}
				var alive bool
				cur, alive = advance(cur, sym)
				d++
				if !alive {
					return true // prune this subtree
				}
			}
			walk(child, cur, d)
			return true
		})
	}
	walk(f.Tree.Root(), nil, 0)
	return candidates
}

// SearchSubsequences runs the ST-Filter method for its original purpose,
// subsequence matching (Park et al.): find every subsequence — any start
// offset, any length — of any data sequence whose time warping distance to
// q is at most epsilon. The suffix tree traversal evaluates the same
// branch-and-bound DP; whenever the full-query DP cell falls within epsilon
// at depth d, the current root path names a length-d substring occurring at
// every suffix below the current edge, and those occurrences become
// candidates for exact refinement.
func (f *STFilter) SearchSubsequences(q seq.Sequence, epsilon float64) (*SubseqResult, error) {
	if q.Empty() {
		return nil, seq.ErrEmpty
	}
	start := time.Now()
	dbBefore := f.DB.Stats()
	res := &SubseqResult{}
	m := len(q)

	seen := make(map[windowRef]bool)
	var cands []windowRef

	advance := func(row []float64, sym int32) ([]float64, bool) {
		next := make([]float64, m)
		alive := false
		lo, hi := f.Cat.Interval(categorize.Symbol(sym))
		for j := 0; j < m; j++ {
			e := f.Base.Elem(0, seq.DistToRange(q[j], lo, hi))
			var best float64
			switch {
			case row == nil && j == 0:
				best = 0
			case row == nil:
				best = next[j-1]
			case j == 0:
				best = row[0]
			default:
				best = row[j]
				if row[j-1] < best {
					best = row[j-1]
				}
				if next[j-1] < best {
					best = next[j-1]
				}
			}
			if row == nil && j == 0 {
				next[j] = e
			} else {
				next[j] = f.Base.Combine(e, best)
			}
			if next[j] <= epsilon {
				alive = true
			}
		}
		return next, alive
	}

	var walk func(n *suffixtree.Node, row []float64, depth int)
	walk = func(n *suffixtree.Node, row []float64, depth int) {
		n.Children(func(_ int32, child *suffixtree.Node) bool {
			res.Stats.TreeNodes++
			label := f.Tree.EdgeSymbols(child)
			edgeEnd := depth + len(label)
			cur := row
			d := depth
			for _, sym := range label {
				if suffixtree.IsTerminator(sym) {
					return true
				}
				var alive bool
				cur, alive = advance(cur, sym)
				d++
				if !alive {
					return true
				}
				if cur[m-1] <= epsilon {
					// Every suffix below this edge starts a length-d match.
					for _, occ := range f.Tree.OccurrencesBelowAt(child, edgeEnd) {
						key := windowRef{id: occ.ID, offset: int32(occ.Offset), length: int32(d)}
						if !seen[key] {
							seen[key] = true
							cands = append(cands, key)
						}
					}
				}
			}
			walk(child, cur, d)
			return true
		})
	}
	walk(f.Tree.Root(), nil, 0)
	res.Stats.Candidates = len(cands)
	var err error
	if res.Matches, err = refineWindows(f.DB, f.Base, q, epsilon, cands, &res.Stats); err != nil {
		return nil, err
	}
	res.Stats.Results = len(res.Matches)
	dbAfter := f.DB.Stats()
	res.Stats.DataReads = dbAfter.Reads - dbBefore.Reads
	res.Stats.DataMisses = dbAfter.Misses - dbBefore.Misses
	res.Stats.DataSeqMisses = dbAfter.SeqMisses - dbBefore.SeqMisses
	res.Stats.TreePages = int64((res.Stats.TreeNodes + treeNodesPerPage - 1) / treeNodesPerPage)
	res.Stats.Wall = time.Since(start)
	return res, nil
}
