package twsim

import (
	"repro/internal/seq"
)

// CompactTo rewrites the live (non-deleted) sequences into a fresh database
// at dir, rebuilding the index with a bulk load. Sequence IDs are
// reassigned densely in the new database; the returned map carries
// old-ID → new-ID for every surviving sequence. The source database is not
// modified.
func (db *DB) CompactTo(dir string, opts Options) (*DB, map[ID]ID, error) {
	dst, err := Create(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	mapping := make(map[ID]ID, db.store.Len())
	var values [][]float64
	var oldIDs []ID
	err = db.store.Scan(func(id seq.ID, s seq.Sequence) error {
		oldIDs = append(oldIDs, id)
		values = append(values, append([]float64(nil), s...))
		return nil
	})
	if err != nil {
		dst.Close()
		return nil, nil, err
	}
	if len(values) > 0 {
		first, err := dst.AddAll(values)
		if err != nil {
			dst.Close()
			return nil, nil, err
		}
		for i, old := range oldIDs {
			mapping[old] = first + ID(i)
		}
	}
	if err := dst.Flush(); err != nil {
		dst.Close()
		return nil, nil, err
	}
	return dst, mapping, nil
}
