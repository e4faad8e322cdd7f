package twsim

import (
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

// walOptions maps the public knobs onto the log's options.
func (o Options) walOptions() wal.Options {
	return wal.Options{FlushInterval: o.WALFlushInterval}
}

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
// Add is atomic: when indexing fails after the heap append succeeded, the
// append is rolled back before the error is returned, so the store and
// the index never diverge and the failed Add can simply be retried.
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
	id, commit, err := db.addLocked(values)
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

// addLocked applies and logs one Add; the returned commit, when non-nil,
// blocks until the covering fsync completes.
func (db *DB) addLocked(values []float64) (ID, wal.Commit, error) {
	id, err := db.applyAdd(values)
	if err != nil || db.wal == nil {
		return id, nil, err
	}
	s := seq.Sequence(values)
	commit, werr := db.wal.Begin(wal.NewAdd(id, s))
	if werr != nil {
		// Applied but unloggable: undo so no acknowledged state ever
		// lacks WAL coverage.
		db.undoAppends([]ID{id}, []seq.Sequence{s})
		return seq.InvalidID, nil, fmt.Errorf("twsim: wal append (rolled back): %w", werr)
	}
	return id, commit, db.maybeCheckpoint()
}

// AddAll stores a batch of sequences; when the database is empty the
// index is STR bulk-loaded, which is substantially faster than repeated
// Add (§4.3.1). Returns the ID of the first added sequence; IDs are
// consecutive.
//
// AddAll is all-or-nothing: on a mid-batch failure every sequence of the
// batch that was already appended is rolled back (and its index entry, if
// any, removed) before the error is returned. With Options.WAL set the
// whole batch is one log record and AddAll returns after its fsync (waited
// for outside the lock, as in Add).
func (db *DB) AddAll(values [][]float64) (ID, error) {
	db.mu.Lock()
	first, commit, err := db.addAllLocked(values)
	db.mu.Unlock()
	return first, durable(commit, err)
}

func (db *DB) addAllLocked(values [][]float64) (ID, wal.Commit, error) {
	first, err := db.applyAddAll(values)
	if err != nil || db.wal == nil {
		return first, nil, err
	}
	ss := make([]seq.Sequence, len(values))
	for i, v := range values {
		ss[i] = seq.Sequence(v)
	}
	commit, werr := db.wal.Begin(wal.NewAddBatch(first, ss))
	if werr != nil {
		ids := make([]ID, len(ss))
		for i := range ids {
			ids[i] = first + ID(i)
		}
		db.undoAppends(ids, ss)
		return seq.InvalidID, nil, fmt.Errorf("twsim: wal append (batch rolled back): %w", werr)
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

// undoAppends rolls back freshly-applied appends (reverse order) after a
// WAL enqueue failure. If a rollback can only tombstone (not truncate)
// the heap slot, the slot is burned with no covering log record — a gap a
// later replay would refuse — so the state is forced durable through a
// checkpoint, leaving an empty, consistent log. The caller holds mu.
func (db *DB) undoAppends(ids []ID, ss []seq.Sequence) {
	defer db.gen.Add(1)
	for i := len(ids) - 1; i >= 0; i-- {
		_, _ = db.index.Delete(ids[i], ss[i])
		db.envs.Remove(ids[i])
		_ = db.store.RollbackLast(ids[i])
	}
	if db.index.Len() != db.store.Len() {
		_, _ = db.repairLocked()
	}
	if len(ids) > 0 && db.store.NumRecords() > int(ids[0]) {
		_ = db.flushLocked()
	}
}

// maybeCheckpoint runs a full Flush (which resets the log) when the log
// file outgrows Options.WALCheckpointBytes, bounding replay length and
// amortizing the index/sidecar saves over tens of megabytes of records. The
// caller holds mu.
func (db *DB) maybeCheckpoint() error {
	limit := db.opts.walCheckpointBytes()
	if limit <= 0 || db.wal.FileBytes() < limit {
		return nil
	}
	return db.flushLocked()
}

// openWAL opens (or creates) the log inside db.dir, truncates any torn
// tail, and replays the valid records over the heap. Replay is
// idempotent: IDs are dense and never reused, so an add record applies
// only when its ID is exactly the next heap slot (an already-present ID
// was applied before the crash and is skipped), and a remove applies only
// to a live record. Index and envelope divergence introduced by replay is
// healed by the same Repair/reconcile pass every Open runs.
func (db *DB) openWAL() error {
	wlog, recs, note, err := wal.Open(filepath.Join(db.dir, walFileName), db.opts.walOptions())
	if err != nil {
		return err
	}
	if note != "" {
		db.note("%s", note)
	}
	applied, rerr := replayWAL(db.store, recs)
	if applied > 0 {
		db.note("wal: replayed %d mutations (%d records) over the heap", applied, len(recs))
		db.walReplayed = true
	}
	if rerr != nil {
		// A replay stop (gap, storage fault) is diagnosable, not fatal:
		// the heap stays the source of truth and the reconcile pass runs
		// regardless. The unapplied tail is dropped at the checkpoint
		// that follows a replayed open.
		db.note("wal: replay stopped early: %v", rerr)
		db.walReplayed = true
	}
	db.wal = wlog
	return nil
}

// replayWAL applies logged mutations to the heap, skipping records whose
// effects are already present (see openWAL). It returns the number of
// mutations actually applied.
func replayWAL(store *seqdb.DB, recs []wal.Record) (applied int, err error) {
	for _, r := range recs {
		switch r.Type {
		case wal.TypeAdd, wal.TypeAddBatch:
			id := r.ID
			for _, s := range r.Data {
				next := seq.ID(store.NumRecords())
				switch {
				case id < next:
					// Already applied before the crash (or by an earlier
					// duplicate record): skip.
				case id == next:
					got, aerr := store.Append(s)
					if aerr != nil {
						return applied, aerr
					}
					if got != id {
						return applied, fmt.Errorf("wal: replay misalignment: appended at %d, record says %d", got, id)
					}
					applied++
				default:
					return applied, fmt.Errorf("wal: record gap: next heap slot is %d, record claims %d", next, id)
				}
				id++
			}
		case wal.TypeRemove:
			if int(r.ID) >= store.NumRecords() {
				return applied, fmt.Errorf("wal: remove of unknown record %d", r.ID)
			}
			if !store.Deleted(r.ID) {
				if _, derr := store.Delete(r.ID); derr != nil {
					return applied, derr
				}
				applied++
			}
		default:
			return applied, fmt.Errorf("wal: unknown record type %d", r.Type)
		}
	}
	return applied, nil
}

// WALStats snapshots the write-ahead log counters (zero when the WAL is
// disabled). The log synchronises itself and db.wal is fixed at Open, so
// this — like WALEnabled, WALTail and WALTailBase — takes no database lock.
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
