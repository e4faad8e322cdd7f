package twsim

import (
	"fmt"

	"repro/internal/core"
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

// OpenMemBaseline is OpenMem over the paper's paged R-tree
// (core.FeatureIndex) in place of the flat index. No database serves from
// it; it is the twin the engine oracles hold a database's answers against.
func OpenMemBaseline(opts Options) (*DB, error) {
	db, err := OpenMem(opts)
	if err != nil {
		return nil, err
	}
	db.index.Close()
	fi, err := core.NewFeatureIndex(core.IndexOptions{})
	if err != nil {
		db.store.Close()
		return nil, err
	}
	db.index = baselineIndex{fi}
	return db, nil
}

// baselineIndex puts the R-tree behind the database's two writes. Its
// backend is in memory and does not fail, so a refused write is a broken
// twin and panics.
type baselineIndex struct{ *core.FeatureIndex }

func (b baselineIndex) Put(ids []ID, features []seq.Feature) {
	for i, id := range ids {
		if err := b.Insert(id, featureSequence(features[i])); err != nil {
			panic(err)
		}
	}
}

func (b baselineIndex) Drop(id ID, f seq.Feature) bool {
	ok, err := b.Delete(id, featureSequence(f))
	if err != nil {
		panic(err)
	}
	return ok
}

// featureSequence is a sequence whose feature is f.
func featureSequence(f seq.Feature) seq.Sequence {
	return seq.Sequence{f.First, f.Greatest, f.Smallest, f.Last}
}

// OpenMemShardedBaseline is OpenMemSharded over OpenMemBaseline shards.
func OpenMemShardedBaseline(opts ShardedOptions) (*ShardedDB, error) {
	dbs := make([]*DB, 0, opts.shardCount())
	for i := 0; i < opts.shardCount(); i++ {
		db, err := OpenMemBaseline(opts.perShard())
		if err != nil {
			closeAll(dbs)
			return nil, err
		}
		dbs = append(dbs, db)
	}
	return newShardedDB(dbs, "", opts)
}
