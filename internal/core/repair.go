package core

import (
	"fmt"

	"repro/internal/seq"
	"repro/internal/seqdb"
)

// RepairStats summarizes what an Open-time reconciliation (or an explicit
// Repair call) had to do to restore the store/index agreement the paper's
// no-false-dismissal guarantee depends on.
type RepairStats struct {
	// LiveSequences is the number of live heap records scanned.
	LiveSequences int
	// IndexedBefore is the number of index entries found before repair.
	IndexedBefore int
	// Orphans is the number of live heap records that had no index entry
	// and were re-indexed (e.g. a crash between append and insert).
	Orphans int
	// Dangling is the number of index entries with no live heap record
	// behind them (deleted sequences, duplicates) that were removed.
	Dangling int
	// Mismatched is the number of index entries whose stored point
	// disagreed with the record's actual feature vector and were re-keyed.
	Mismatched int
	// Rebuilt reports that the index could not be opened or walked at all
	// and was rebuilt from scratch by scanning the heap.
	Rebuilt bool
	// Envelopes is the number of PAA envelopes re-derived from heap records
	// because the envelope store lacked them. The store is a cache beside
	// the index, so this alone does not count as a repair.
	Envelopes int
}

// Repaired reports whether the reconciliation changed anything.
func (rs RepairStats) Repaired() bool {
	return rs.Rebuilt || rs.Orphans+rs.Dangling+rs.Mismatched > 0
}

// String renders a one-line human-readable summary.
func (rs RepairStats) String() string {
	if rs.Rebuilt {
		return fmt.Sprintf("index rebuilt from %d live sequences", rs.LiveSequences)
	}
	if !rs.Repaired() {
		return fmt.Sprintf("consistent: %d sequences indexed", rs.LiveSequences)
	}
	return fmt.Sprintf("repaired: %d orphans re-indexed, %d dangling removed, %d re-keyed (%d live, %d indexed before)",
		rs.Orphans, rs.Dangling, rs.Mismatched, rs.LiveSequences, rs.IndexedBefore)
}

// Reconcile diffs the feature index and the envelope store against the live
// heap records in one heap scan and patches both in place: orphaned records
// are re-indexed (bulk-loaded when the index is empty — the rebuild of an
// index file that could not be opened), dangling and duplicate entries
// deleted, mis-keyed entries re-inserted at the record's true feature
// point, an envelope derived for every live record that lacks one and
// dropped for every ID that is no longer live. Envelopes already held are
// trusted: an ID is never reused and its envelope never changes, and a
// damaged sidecar chunk was emptied when it was loaded. After a nil return
// every live sequence is indexed exactly once at its current feature vector,
// so searches are again free of false dismissal (Theorems 1-2). envs may be
// nil.
func Reconcile(store *seqdb.DB, index Index, envs *EnvStore) (RepairStats, error) {
	var rs RepairStats
	entries, err := index.Entries()
	if err != nil {
		return rs, fmt.Errorf("core: walking index: %w", err)
	}
	rs.IndexedBefore = len(entries)

	// state[id] is what the index and the scan know about a record slot.
	// Entries naming a slot the heap never had, or a slot already claimed,
	// are dangling whatever the scan finds. Deletions are applied after the
	// walk above, never during it.
	type slotState struct {
		point         [4]float64
		indexed, live bool
	}
	state := make([]slotState, store.NumRecords())
	drop := func(e IndexEntry) error {
		if _, err := index.DeleteEntry(e.ID, e.Point); err != nil {
			return fmt.Errorf("core: removing dangling entry %d: %w", e.ID, err)
		}
		rs.Dangling++
		return nil
	}
	for _, e := range entries {
		if int(e.ID) >= len(state) || state[e.ID].indexed {
			if err := drop(e); err != nil {
				return rs, err
			}
			continue
		}
		state[e.ID].point, state[e.ID].indexed = e.Point, true
	}

	var orphanIDs []seq.ID
	var orphans []seq.Feature
	err = store.Scan(func(id seq.ID, s seq.Sequence) error {
		rs.LiveSequences++
		st := &state[id]
		st.live = true
		f, err := seq.ExtractFeature(s)
		if err != nil {
			return fmt.Errorf("core: record %d: %w", id, err)
		}
		switch {
		case !st.indexed:
			orphanIDs, orphans = append(orphanIDs, id), append(orphans, f)
		case st.point != f.Vector():
			if _, err := index.DeleteEntry(id, st.point); err != nil {
				return fmt.Errorf("core: removing stale entry %d: %w", id, err)
			}
			if err := index.InsertFeature(id, f); err != nil {
				return fmt.Errorf("core: re-keying entry %d: %w", id, err)
			}
			rs.Mismatched++
		}
		if _, ok := envs.Get(id); envs != nil && !ok {
			e, err := seq.ExtractPAAEnvelope(s)
			if err != nil {
				return fmt.Errorf("core: envelope of record %d: %w", id, err)
			}
			envs.Put(id, e)
			rs.Envelopes++
		}
		return nil
	})
	if err != nil {
		return rs, err
	}

	for id := range state {
		if st := &state[id]; st.indexed && !st.live {
			if err := drop(IndexEntry{ID: seq.ID(id), Point: st.point}); err != nil {
				return rs, err
			}
		}
	}
	for id := 0; id < envs.span(); id++ {
		if id >= len(state) || !state[id].live {
			envs.Remove(seq.ID(id))
		}
	}

	// Index every live record the index did not know about, in ID order.
	rs.Orphans = len(orphans)
	if len(orphans) > 0 && index.Len() == 0 {
		if err := index.BulkLoad(orphanIDs, orphans); err != nil {
			return rs, fmt.Errorf("core: bulk-loading %d records: %w", len(orphans), err)
		}
		return rs, nil
	}
	for i, id := range orphanIDs {
		if err := index.InsertFeature(id, orphans[i]); err != nil {
			return rs, fmt.Errorf("core: re-indexing orphan %d: %w", id, err)
		}
	}
	return rs, nil
}
