package twsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dtw"
	"repro/internal/seq"
)

// Verify performs a full integrity check of the database — the fsck
// counterpart to CheckInvariants (which validates only the R-tree
// structure):
//
//  1. every live heap record decodes (CRC failures and truncations
//     surface as errors from the scan);
//  2. the index holds exactly one entry per live sequence, keyed at its
//     current feature vector (checked by a zero-tolerance range query —
//     exactness of the lower bound makes this sound);
//  3. the index entry count matches the live sequence count;
//  4. the PAA envelope store holds exactly the envelope re-derivable from
//     every live sequence, in its packed form (the LB_PAA filter tier
//     prunes on these before fetching, so a stale envelope could silently
//     mis-prune).
//
// Verify reads every page of the database; cost is one sequential sweep
// plus one point query per sequence.
func (db *DB) Verify() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if err := db.index.CheckInvariants(); err != nil {
		return fmt.Errorf("twsim: index structure: %w", err)
	}
	live := 0
	err := db.store.Scan(func(id seq.ID, s seq.Sequence) error {
		live++
		f, err := seq.ExtractFeature(s)
		if err != nil {
			return fmt.Errorf("sequence %d: %w", id, err)
		}
		// A stored sequence whose feature is invalid (a non-finite element
		// slipped in before input validation existed, or corruption decoded
		// to NaN) is unreachable through the index: every range comparison
		// against a NaN coordinate is false. Flag it by name rather than
		// letting the zero-tolerance probe below fail cryptically.
		if !f.Valid() {
			return fmt.Errorf("sequence %d: invalid feature %+v (non-finite or inconsistent); unreachable through the index", id, f)
		}
		// A zero-tolerance range query around the sequence's own feature
		// must return the sequence itself: LBKim(s, s) = 0.
		ids, err := db.index.RangeQuery(f, 0)
		if err != nil {
			return fmt.Errorf("sequence %d: index query: %w", id, err)
		}
		found := false
		for _, got := range ids {
			if got == id {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("sequence %d: missing from index (feature %+v)", id, f)
		}
		// The envelope store must hold exactly the profile this record
		// derives to (envelopes are immutable per ID — IDs are never reused
		// — so a mismatch means the store diverged from the heap).
		pe := db.envs.Get(id)
		if pe == nil {
			return fmt.Errorf("sequence %d: missing PAA envelope", id)
		}
		if want, err := seq.ExtractPAAEnvelope(s); err != nil || *pe != core.PackEnvelope(want) {
			return fmt.Errorf("sequence %d: PAA envelope does not match the stored record", id)
		}
		// Paranoia: the stored record must be self-consistent under DTW.
		if d := dtw.LBKim(s, s); d != 0 {
			return fmt.Errorf("sequence %d: self lower bound %g != 0", id, d)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("twsim: heap/index cross-check: %w", err)
	}
	if idxLen := db.index.Len(); idxLen != live {
		return fmt.Errorf("twsim: index holds %d entries, heap holds %d live sequences",
			idxLen, live)
	}
	if envLen := db.envs.Len(); envLen != live {
		return fmt.Errorf("twsim: envelope store holds %d entries, heap holds %d live sequences",
			envLen, live)
	}
	return nil
}
