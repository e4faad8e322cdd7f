package seqdb

import (
	"fmt"

	"repro/internal/seq"
)

// RollbackLast undoes the most recent Append: the database's write path
// calls it when indexing a freshly appended sequence fails, so the heap
// never keeps a record the index does not know about. Only the newest
// record can be rolled back (id must equal NumRecords()-1 and be live);
// its directory entry is dropped and the heap tail is truncated logically,
// so the next Append reuses both the ID and the space.
//
// When the record's bytes cannot be read back (the storage fault that
// failed the index write may still be active), the record is tombstoned
// instead — strictly weaker (the ID is burned and the element count stays
// approximate until the directory is rebuilt) but it still restores the
// store/index agreement that searches rely on.
func (db *DB) RollbackLast(id seq.ID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	last := len(db.offsets) - 1
	if last < 0 || int(id) != last {
		return fmt.Errorf("seqdb: RollbackLast(%d): newest record is %d", id, last)
	}
	if db.tombstones[id] {
		return fmt.Errorf("seqdb: RollbackLast(%d): record already deleted", id)
	}
	start := db.offsets[last]
	sc := AcquireScratch()
	defer sc.Release()
	s, err := db.decodeLocked(start, db.total, sc)
	if err != nil {
		db.tombstoneLocked(id)
		return nil
	}
	db.offsets = db.offsets[:last]
	db.total = start
	db.elems -= int64(len(s))
	db.live--
	return nil
}

// tombstoneLocked marks id deleted. Caller holds db.mu.
func (db *DB) tombstoneLocked(id seq.ID) {
	if db.tombstones == nil {
		db.tombstones = make(map[seq.ID]bool)
	}
	db.tombstones[id] = true
	db.live--
}
