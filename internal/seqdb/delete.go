package seqdb

import (
	"errors"
	"fmt"

	"repro/internal/seq"
)

// ErrDeleted is returned by Get for sequences that were removed. Deleted
// IDs are never reused; the heap file reclaims their space only on Compact
// (not implemented — the workloads this engine reproduces are append-only).
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
	db.tombstoneLocked(id)
	return true, nil
}

// Deleted reports whether the given ID has been tombstoned.
func (db *DB) Deleted(id seq.ID) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tombstones[id]
}

// NumRecords returns the number of records ever appended, including
// tombstoned ones. IDs are always < NumRecords().
func (db *DB) NumRecords() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.offsets)
}
