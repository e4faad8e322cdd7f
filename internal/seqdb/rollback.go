package seqdb

import (
	"fmt"

	"repro/internal/seq"
)

// RollbackLast undoes the most recent append: the database's write path
// calls it when the log record of a freshly applied write cannot be
// enqueued, so the heap never keeps a record no log covers. Only the
// newest record can be rolled back (id must equal NumRecords()-1 and be
// live); its directory entry is dropped and the heap tail is truncated
// logically, so the next append reuses both the ID and the space. The
// element count comes from the directory — a record of n elements spans
// 4 + 8n bytes — so nothing is read back and the rollback of the newest
// live record cannot fail.
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
	db.elems -= (db.total - start - 4) / 8
	db.offsets = db.offsets[:last]
	db.total = start
	db.live--
	return nil
}
