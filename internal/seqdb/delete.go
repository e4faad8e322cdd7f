package seqdb

import (
	"errors"
	"fmt"

	"repro/internal/seq"
)

// ErrDeleted is returned by Get for sequences that were removed. Deleted
// IDs are never reused, and the heap file never reclaims their space: there
// is no compaction yet (ROADMAP item 6), though writes beside reads delete
// (mixed_rw_wal removes one operation in 20).
var ErrDeleted = errors.New("seqdb: sequence deleted")

// Delete tombstones the sequence with the given ID. It reports whether the
// sequence existed and was live. Scan skips deleted sequences; Get returns
// ErrDeleted for them.
func (db *DB) Delete(id seq.ID) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if int(id) >= len(db.offsets) {
		return false, fmt.Errorf("%w: id %d of %d", ErrNotFound, id, len(db.offsets))
	}
	if db.tombstones[id] {
		return false, nil
	}
	if db.tombstones == nil {
		db.tombstones = make(map[seq.ID]bool)
	}
	db.tombstones[id] = true
	db.live--
	return true, nil
}

// NumRecords returns the number of records ever appended, including
// tombstoned ones. IDs are always < NumRecords().
func (db *DB) NumRecords() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.offsets)
}
