package twsim

import (
	"fmt"

	"repro/internal/seq"
)

// SearchUncached answers a range query past every whole-query result
// cache: a *DB runs its searcher directly, a *ShardedDB its engine, whose
// shards run with the cache off. Tests recompute a cached answer with it.
func SearchUncached(b Backend, query []float64, epsilon float64, band int) ([]Match, error) {
	var res *Result
	var err error
	switch b := b.(type) {
	case *DB:
		b.mu.RLock()
		res, err = b.searcher(nil, band).Search(seq.Sequence(query), epsilon)
		b.mu.RUnlock()
	case *ShardedDB:
		res, err = b.eng.SearchCtx(nil, query, epsilon, band)
	default:
		return nil, fmt.Errorf("SearchUncached: unsupported backend %T", b)
	}
	if err != nil {
		return nil, err
	}
	return res.Matches, nil
}

// CopyTree copies a database directory byte for byte (wal_crash_test.go):
// the crash image of a database that is still open.
var CopyTree = copyTree
