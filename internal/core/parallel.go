package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/seq"
	"repro/internal/seqdb"
)

// refineParallel is the bounded-worker form of refine. Workers pull
// candidate indices from a shared atomic counter; each worker owns a private
// cascade (the pooled refiner is not concurrency-safe; the query's envelopes
// are built once and shared, see workerCascades) and a private QueryStats,
// summed into stats at the end so the conservation law
// Candidates = ΣPruned + DTWCalls holds exactly as in the serial loop.
//
// Results are bit-identical to the serial loop: the cutoff is the fixed
// tolerance ε, so each candidate's verdict and exact distance are
// independent of evaluation order; accepted matches land in a slot array
// indexed by candidate position and are sorted by (Dist, ID) at the end,
// the same final order sortMatches gives the serial path.
//
// ctx is checked once per dispatch slot — the moment a worker claims its
// next candidate index, before any fetch or DP — so a cancelled query stops
// issuing DTW calls after at most one in-flight candidate per worker.
func refineParallel(ctx context.Context, db *seqdb.DB, base seq.Base, q seq.Sequence, epsilon float64,
	ids []seq.ID, noCascade bool, band int, envs *EnvStore, workers int, stats *QueryStats) ([]Match, error) {
	n := len(ids)
	if workers > n {
		workers = n
	}
	type slot struct {
		m  Match
		ok bool
	}
	slots := make([]slot, n)
	workerStats := make([]QueryStats, workers)
	workerErrs := make([]error, workers)
	errAt := make([]int, workers)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w, c := range workerCascades(newCascade(q, base, band, envs, noCascade), workers) {
		wg.Add(1)
		go func(w int, c *cascade) {
			defer wg.Done()
			defer c.close()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				err := ctxErr(ctx)
				if err == nil {
					slots[i].m, slots[i].ok, err = c.refineOne(db, ids[i], epsilon, &workerStats[w])
				}
				if err != nil {
					workerErrs[w], errAt[w] = err, i
					failed.Store(true)
					return
				}
			}
		}(w, c)
	}
	wg.Wait()
	if failed.Load() {
		// Surface the failure at the lowest candidate index so the reported
		// error does not depend on goroutine scheduling.
		firstErr, first := error(nil), n
		for w, err := range workerErrs {
			if err != nil && errAt[w] < first {
				firstErr, first = err, errAt[w]
			}
		}
		return nil, firstErr
	}
	for w := range workerStats {
		stats.Add(workerStats[w])
	}
	var matches []Match
	for i := range slots {
		if slots[i].ok {
			matches = append(matches, slots[i].m)
		}
	}
	sortMatches(matches)
	return matches, nil
}

// workerCascades returns one cascade per worker of a query: first itself and
// n−1 of its workers, so the query's envelopes are built once however many
// goroutines refine it. Each goroutine closes its own.
func workerCascades(first *cascade, n int) []*cascade {
	cs := make([]*cascade, n)
	cs[0] = first
	for w := 1; w < n; w++ {
		cs[w] = first.worker()
	}
	return cs
}

// nearestKParallel is the serial walk of nearestKShared with the candidate
// body fanned out to a bounded worker pool. The index walk itself stays
// sequential (it is cheap and must stream candidates in ascending
// lower-bound order) and feeds a bounded channel; workers fetch and verify
// concurrently against the shrinking cutoff in top.
//
// Soundness (no false dismissal) despite workers observing momentarily
// stale cutoffs: the cutoff — min(local k-th best, shared bound) — only
// ever shrinks (each component is monotone non-increasing), so any value a
// worker or the walk-stop test reads is ≥ the final cutoff. A true top-k
// member m has Dtw(m) ≤ final k-th best ≤ every cutoff ever observed, so the
// walk cannot stop before streaming m (comparableLB(m) ≤ Dtw(m) ≤ cutoff)
// and m's verification cannot reject it (verify accepts at ≤ cutoff).
// Staleness therefore only admits extra candidates, which the final
// sort-and-truncate removes; the returned set is the (Dist, ID)-ordered
// top-k of all streamed candidates — exactly the serial result, bit for bit.
func (t *TWSimSearch) nearestKParallel(q seq.Sequence, fq seq.Feature, top *knnTop, stats *QueryStats) ([]Match, error) {
	workers := t.Workers
	// Twice the workers: the walk stays one candidate per worker ahead, so
	// a worker never idles on the walk's next pop, and no further — every
	// queued candidate was admitted on a cutoff that may have shrunk since.
	work := make(chan seq.ID, workers*2)
	workerStats := make([]QueryStats, workers)
	workerErrs := make([]error, workers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w, c := range workerCascades(newCascade(q, t.Base, t.Band, t.Envs, t.NoCascade), workers) {
		wg.Add(1)
		go func(w int, c *cascade) {
			defer wg.Done()
			defer c.close()
			for id := range work {
				if failed.Load() {
					continue // drain so the producer never blocks
				}
				err := ctxErr(t.Ctx)
				if err == nil {
					err = t.knnCandidate(c, top, id, &workerStats[w])
				}
				if err != nil {
					workerErrs[w] = err
					failed.Store(true)
				}
			}
		}(w, c)
	}

	var ctxAbort error
	walkErr := t.knnWalk(q, fq, stats, func(id seq.ID, key float64) bool {
		if failed.Load() {
			return false
		}
		if ctxAbort = ctxErr(t.Ctx); ctxAbort != nil {
			return false
		}
		if key > top.cutoff() {
			return false // ascending keys: every later candidate is above too
		}
		work <- id
		return true
	})
	close(work)
	wg.Wait()

	for w := range workerStats {
		stats.Add(workerStats[w])
	}
	for _, err := range workerErrs {
		if err != nil {
			return nil, err
		}
	}
	if walkErr != nil {
		return nil, walkErr
	}
	if ctxAbort != nil {
		return nil, ctxAbort
	}
	return top.best, nil
}
