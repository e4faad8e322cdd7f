package twsim

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/seq"
)

// validateBatch is the one upfront check both backends' batch paths run:
// the tolerance, the band, and every query's elements (ErrNonFinite), so an
// invalid batch fails before any index is touched and with the same error
// whichever backend serves it.
func validateBatch(queries [][]float64, epsilon float64, band int) error {
	if epsilon < 0 {
		return errNegativeTolerance(epsilon)
	}
	if err := validateBand(band); err != nil {
		return err
	}
	for i, q := range queries {
		if err := seq.CheckFinite(q); err != nil {
			return fmt.Errorf("twsim: query %d: %w", i, err)
		}
	}
	return nil
}

// stampBatch gives every Result of a finished batch its own RequestID and
// slow-query log line.
func (o Options) stampBatch(queries [][]float64, out []*Result, epsilon float64, band int) {
	param := fmt.Sprintf("epsilon=%g band=%d", epsilon, band)
	for i, res := range out {
		res.RequestID = nextRequestID()
		o.logSlowQuery("batch", res.RequestID, len(queries[i]), param, res.Stats)
	}
}

// SearchBatch runs many whole-matching queries concurrently under the
// database's default band (Options.Band) and returns one Result per query,
// in input order. It is SearchBatchCtx with no context.
func (db *DB) SearchBatch(queries [][]float64, epsilon float64, parallelism int) ([]*Result, error) {
	return db.SearchBatchCtx(nil, queries, epsilon, db.opts.Band, parallelism)
}

// SearchBatchCtx is the batch door: many range queries run concurrently
// under an explicit Sakoe–Chiba band half-width (0 = unconstrained), one
// Result per query in input order. parallelism <= 0 selects GOMAXPROCS. The
// first error aborts the batch; every query is validated for non-finite
// elements upfront (ErrNonFinite); each Result gets its own RequestID and
// slow-query log line. Once ctx is done the dispatcher stops feeding
// queries, in-flight queries abandon at their next candidate boundary, and
// the whole batch fails with the context's error (nil never cancels).
// Options.QueryDeadline, when set, bounds the whole batch (the deadline is
// attached once, not per query). The per-query result cache is not
// consulted on the batch path — batch throughput is dominated by cold
// queries, and the per-query stamping would serialize on the cache stripes.
func (db *DB) SearchBatchCtx(ctx context.Context, queries [][]float64, epsilon float64, band, parallelism int) ([]*Result, error) {
	if err := validateBatch(queries, epsilon, band); err != nil {
		return nil, err
	}
	ctx, cancel := db.opts.applyDeadline(ctx)
	defer cancel()
	// One read lock covers the batch: the workers run under it.
	db.mu.RLock()
	defer db.mu.RUnlock()
	// One worker per query already fills the machine; nesting intra-query
	// refine workers under that would oversubscribe. The searcher is
	// read-only configuration, so the workers share it.
	m := db.searcher(ctx, 1, band)
	out := make([]*Result, len(queries))
	err := core.RunBatch(len(queries), parallelism, func(i int) error {
		res, err := m.Search(seq.Sequence(queries[i]), epsilon)
		if err != nil {
			return fmt.Errorf("twsim: query %d: %w", i, err)
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	db.opts.stampBatch(queries, out, epsilon, band)
	return out, nil
}

// CompactTo rewrites the live (non-deleted) sequences into a fresh database
// at dir, rebuilding the index with a bulk load. Sequence IDs are
// reassigned densely in the new database; the returned map carries
// old-ID → new-ID for every surviving sequence. The source database is not
// modified.
func (db *DB) CompactTo(dir string, opts Options) (*DB, map[ID]ID, error) {
	dst, err := Create(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	mapping := make(map[ID]ID, db.store.Len())
	var values [][]float64
	var oldIDs []ID
	err = db.store.Scan(func(id seq.ID, s seq.Sequence) error {
		oldIDs = append(oldIDs, id)
		values = append(values, append([]float64(nil), s...))
		return nil
	})
	if err != nil {
		dst.Close()
		return nil, nil, err
	}
	if len(values) > 0 {
		first, err := dst.AddAll(values)
		if err != nil {
			dst.Close()
			return nil, nil, err
		}
		for i, old := range oldIDs {
			mapping[old] = first + ID(i)
		}
	}
	if err := dst.Flush(); err != nil {
		dst.Close()
		return nil, nil, err
	}
	return dst, mapping, nil
}
