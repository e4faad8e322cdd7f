package twsim

import "repro/internal/core"

// OpenMemBaseline is OpenMem over the paper's paged R-tree
// (core.FeatureIndex) in place of the flat index. No database serves from
// it; it is the twin the engine oracles hold a database's answers against.
func OpenMemBaseline(opts Options) (*DB, error) {
	db, err := OpenMem(opts)
	if err != nil {
		return nil, err
	}
	db.index.Close()
	if db.index, err = core.NewFeatureIndex(core.IndexOptions{PageSize: opts.PageSize}); err != nil {
		db.store.Close()
		return nil, err
	}
	return db, nil
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
