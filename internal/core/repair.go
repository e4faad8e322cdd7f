package core

import (
	"fmt"

	"repro/internal/seq"
	"repro/internal/seqdb"
)

// RepairStats summarizes an explicit Repair: the feature index and the
// envelope store derived again from the live heap records.
type RepairStats struct {
	// LiveSequences is the number of live heap records scanned.
	LiveSequences int
	// Rebuilt reports that the index and the envelopes were rebuilt from
	// the heap.
	Rebuilt bool
}

// Repaired reports whether the repair changed anything.
func (rs RepairStats) Repaired() bool { return rs.Rebuilt }

// deriveBatch is the number of records the scan hands the derive goroutine
// at a time.
const deriveBatch = 256

type derivedRecord struct {
	id seq.ID
	s  seq.Sequence
}

// Derive fills an empty index and envelope store from the live heap records
// in one heap scan and returns the number of records it scanned. The scan
// hands each record, which it owns, to one goroutine in batches; that
// goroutine extracts the record's Kim feature and packs its envelope while
// the scan decodes the next pages, and the index is bulk-loaded once at the
// end. Both are pure functions of the heap, so after a nil return every
// live sequence is indexed exactly once at its feature vector and holds
// exactly its envelope, and searches are free of false dismissal
// (Theorems 1-2).
func Derive(store *seqdb.DB, index *FlatIndex, envs *EnvStore) (live int, err error) {
	var ids []seq.ID
	var features []seq.Feature
	var derr error // the first record that fails; the ones after it are drained unread
	derive := func(r derivedRecord) error {
		f, err := seq.ExtractFeature(r.s)
		if err != nil {
			return err
		}
		e, err := seq.ExtractPAAEnvelope(r.s)
		if err != nil {
			return err
		}
		envs.Put(r.id, e)
		ids, features = append(ids, r.id), append(features, f)
		return nil
	}
	batches := make(chan []derivedRecord, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for batch := range batches {
			for _, r := range batch {
				if derr != nil {
					break
				}
				if err := derive(r); err != nil {
					derr = fmt.Errorf("core: record %d: %w", r.id, err)
				}
			}
		}
	}()
	batch := make([]derivedRecord, 0, deriveBatch)
	err = store.Scan(func(id seq.ID, s seq.Sequence) error {
		live++
		if batch = append(batch, derivedRecord{id, s}); len(batch) == deriveBatch {
			batches <- batch
			batch = make([]derivedRecord, 0, deriveBatch)
		}
		return nil
	})
	batches <- batch
	close(batches)
	<-done
	if err != nil {
		return live, fmt.Errorf("core: scanning the heap: %w", err)
	}
	if derr != nil {
		return live, derr
	}
	if err := index.BulkLoad(ids, features); err != nil {
		return live, fmt.Errorf("core: bulk-loading %d records: %w", len(ids), err)
	}
	return live, nil
}
