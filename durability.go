package twsim

import (
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/seq"
	"repro/internal/seqdb"
	"repro/internal/wal"
)

// walFileName is the group-commit log's file inside the database dir.
const walFileName = "wal.log"

// WALStats snapshots the write-ahead log counters (see internal/wal
// Stats). Fsyncs / Records is the group-commit batching factor.
type WALStats = wal.Stats

// walCheckpointBytes resolves the auto-checkpoint threshold (<= 0 when
// disabled).
func (o Options) walCheckpointBytes() int64 {
	if o.WALCheckpointBytes == 0 {
		return 64 << 20
	}
	if o.WALCheckpointBytes < 0 {
		return 0
	}
	return o.WALCheckpointBytes
}

// Add stores a sequence and indexes its feature vector, returning its ID.
// Empty sequences are rejected, as are sequences containing NaN or ±Inf
// (ErrNonFinite): a non-finite element would make the index entry
// unreachable while scans still see the record, silently breaking the
// no-false-dismissal guarantee.
//
// Add is atomic: every check that can refuse it runs before anything is
// written, and a failed heap write leaves nothing behind, so the store and
// the index never diverge and a failed Add can simply be retried.
//
// With Options.WAL set, Add returns only after the fsync covering its log
// record completes — an acknowledged Add survives a crash. A non-nil
// error alongside a valid ID means the write was applied in memory but
// its durability is unknown (the fsync failed). The mutation is applied and
// its record enqueued under the writer lock; the wait for the fsync happens
// after the lock is released, so other writers enter the batch meanwhile
// and share it (group commit).
func (db *DB) Add(values []float64) (ID, error) {
	db.mu.Lock()
	id, commit, err := db.addLocked([][]float64{values})
	db.mu.Unlock()
	return id, durable(commit, err)
}

// durable finishes a write after the lock is released: it passes an apply
// error through, and otherwise blocks until the fsync covering the write's
// log record completes (nil commit: no WAL, nothing to wait for).
func durable(commit wal.Commit, err error) error {
	if err != nil || commit == nil {
		return err
	}
	return commit()
}

// AddAll stores a batch of sequences and returns the ID of the first; IDs
// are consecutive. Into an index that holds nothing the batch is STR
// bulk-loaded, which is substantially faster than repeated Add (§4.3.1).
//
// AddAll is all-or-nothing: the whole batch is validated before anything
// is written, and the heap publishes it only once every byte is written.
// With Options.WAL set the whole batch is one log record and AddAll returns
// after its fsync (waited for outside the lock, as in Add).
func (db *DB) AddAll(values [][]float64) (ID, error) {
	db.mu.Lock()
	first, commit, err := db.addLocked(values)
	db.mu.Unlock()
	return first, durable(commit, err)
}

// addLocked applies and logs one Add or AddAll (a single sequence is an add
// record, a batch an add-batch record); the returned commit, when non-nil,
// blocks until the covering fsync completes.
func (db *DB) addLocked(values [][]float64) (ID, wal.Commit, error) {
	first, ss, err := db.applyAdd(values)
	if err != nil || db.wal == nil {
		return first, nil, err
	}
	rec := wal.NewAddBatch(first, ss)
	if len(ss) == 1 {
		rec = wal.NewAdd(first, ss[0])
	}
	commit, werr := db.wal.Begin(rec)
	if werr != nil {
		// Applied but unloggable: undo so no acknowledged state ever
		// lacks WAL coverage.
		db.undoAppends(first, ss)
		return seq.InvalidID, nil, fmt.Errorf("twsim: wal append (rolled back): %w", werr)
	}
	return first, commit, db.maybeCheckpoint()
}

// Remove deletes a stored sequence: its index entry is removed and the
// heap record tombstoned (IDs are never reused; heap space is reclaimed
// only by rebuilding the database). It reports whether the sequence was
// present and live. With Options.WAL set, Remove returns after the fsync
// covering its log record (waited for outside the lock, as in Add).
func (db *DB) Remove(id ID) (bool, error) {
	db.mu.Lock()
	ok, commit, err := db.removeLocked(id)
	db.mu.Unlock()
	return ok, durable(commit, err)
}

func (db *DB) removeLocked(id ID) (bool, wal.Commit, error) {
	ok, err := db.applyRemove(id)
	if err != nil || !ok || db.wal == nil {
		return ok, nil, err
	}
	commit, werr := db.wal.Begin(wal.NewRemove(id))
	if werr != nil {
		// A tombstone cannot be un-set; make it durable through a full
		// checkpoint instead, which also leaves the log consistent.
		if ferr := db.flushLocked(); ferr != nil {
			return ok, nil, fmt.Errorf("twsim: wal append failed (%v) and checkpoint failed: %w", werr, ferr)
		}
		return ok, nil, nil
	}
	return ok, commit, db.maybeCheckpoint()
}

// undoAppends takes back the batch applyAdd just applied at first, newest
// record first, after its WAL record could not be enqueued. None of it can
// fail: each record is the heap's newest live one when its turn comes, and
// RollbackLast reads nothing back, so the IDs and the space are free again
// and the log needs no record for them. The caller holds mu.
func (db *DB) undoAppends(first ID, ss []seq.Sequence) {
	for i := len(ss) - 1; i >= 0; i-- {
		id := first + ID(i)
		db.index.Drop(id, seq.MustFeature(ss[i]))
		db.envs.Remove(id)
		_ = db.store.RollbackLast(id) // id is the newest live record: cannot fail
	}
	db.gen.Add(1)
}

// maybeCheckpoint runs a full Flush (which resets the log) when the log
// file outgrows Options.WALCheckpointBytes, bounding replay length and
// amortizing the heap's fsyncs over tens of megabytes of records. The
// caller holds mu.
func (db *DB) maybeCheckpoint() error {
	limit := db.opts.walCheckpointBytes()
	if limit <= 0 || db.wal.FileBytes() < limit {
		return nil
	}
	return db.flushLocked()
}

// openWAL opens (or creates) the log inside db.dir, truncates any torn
// tail, and replays the valid records over the heap (walkWAL, which skips
// what the heap already holds). The index and the envelopes are derived
// from the heap after the replay, like on every Open.
func (db *DB) openWAL() error {
	wlog, recs, note, err := wal.Open(filepath.Join(db.dir, walFileName))
	if err != nil {
		return err
	}
	if note != "" {
		db.note("%s", note)
	}
	applied, _, rerr := walkWAL(heapReplay{db.store}, recs)
	if applied > 0 {
		db.note("wal: replayed %d mutations (%d records) over the heap", applied, len(recs))
		db.walReplayed = true
	}
	if rerr != nil {
		// A replay stop (gap, non-finite value, storage fault) is
		// diagnosable, not fatal: the heap stays the source of truth and
		// the derive scan runs regardless. The unapplied tail is dropped at
		// the checkpoint that follows a replayed open.
		db.note("wal: replay stopped early: %v", rerr)
		db.walReplayed = true
	}
	db.wal = wlog
	return nil
}

// walTarget is what walkWAL writes through: the heap alone at Open's
// replay (heapReplay), a replica's own write path (*DB) when it applies a
// primary's tail.
type walTarget interface {
	NumRecords() int
	Add(values []float64) (ID, error)
	Remove(id ID) (bool, error)
}

// heapReplay is the walTarget of Open's replay. It refuses an add carrying
// a NaN or ±Inf value, as every write door does: its index entry would sit
// at a point no range query reaches.
type heapReplay struct{ *seqdb.DB }

func (h heapReplay) Add(values []float64) (ID, error) {
	if err := seq.CheckFinite(values); err != nil {
		return seq.InvalidID, err
	}
	return h.Append(values)
}

func (h heapReplay) Remove(id ID) (bool, error) { return h.Delete(id) }

// errWALGap marks a record that does not line up with the target's dense ID
// space, or of a type this version does not know. A replica wraps it in
// ErrReplicaDiverged.
var errWALGap = errors.New("wal: record gap")

// walkWAL applies logged mutations to t in log order, skipping what t
// already holds: IDs are dense and never reused, so an add applies only
// when its ID is the next slot (a lower one was applied before), and a
// remove counts only when the record was live. It returns the number of
// mutations applied and the sequence number of the last record reached.
func walkWAL(t walTarget, recs []wal.Record) (applied int, last uint64, err error) {
	for _, r := range recs {
		last = r.Seq
		switch r.Type {
		case wal.TypeAdd, wal.TypeAddBatch:
			id := r.ID
			for _, s := range r.Data {
				switch next := ID(t.NumRecords()); {
				case id < next:
				case id == next:
					got, err := t.Add(s)
					if err != nil {
						return applied, last, fmt.Errorf("wal: record %d: %w", id, err)
					}
					if got != id {
						return applied, last, fmt.Errorf("%w: add landed at %d, record says %d", errWALGap, got, id)
					}
					applied++
				default:
					return applied, last, fmt.Errorf("%w: next slot is %d, record claims %d", errWALGap, next, id)
				}
				id++
			}
		case wal.TypeRemove:
			if int(r.ID) >= t.NumRecords() {
				return applied, last, fmt.Errorf("%w: remove of unknown record %d", errWALGap, r.ID)
			}
			ok, err := t.Remove(r.ID)
			if err != nil {
				return applied, last, fmt.Errorf("wal: remove %d: %w", r.ID, err)
			}
			if ok {
				applied++
			}
		default:
			return applied, last, fmt.Errorf("%w: unknown record type %d", errWALGap, r.Type)
		}
	}
	return applied, last, nil
}

// WALStats snapshots the write-ahead log counters (zero when the WAL is
// disabled). The log synchronises itself and db.wal is fixed at Open, so
// this — like WALEnabled and WALTail — takes no database lock.
func (db *DB) WALStats() WALStats {
	if db.wal == nil {
		return WALStats{}
	}
	return db.wal.Stats()
}

// WALEnabled reports whether this database runs with a write-ahead log.
func (db *DB) WALEnabled() bool { return db.wal != nil }

// NumRecords returns the number of heap record slots including
// tombstones — the dense ID space (the next Add gets ID NumRecords()).
// Replication uses it to align a primary's record stream with a replica.
func (db *DB) NumRecords() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.store.NumRecords()
}
