// Package shard implements a hash-partitioned sharded query engine over N
// independent single-partition databases. Each shard owns its own heap
// file, feature index, and buffer pools; the engine routes point operations
// (Get/Remove) straight to the owning shard, fans whole-matching searches
// out across shards and merges the partial results, and adds no lock of its
// own: every shard synchronises itself, so a writer excludes only its target
// shard and inserts into different shards proceed concurrently end-to-end.
//
// Sequence IDs carry their placement: a sequence stored at local ID l in
// shard s has global ID l*N + s, so ShardOf(id) = id mod N and the local ID
// is id / N — pure functions of the ID and the shard count, stable across
// Close/Open. Placement of new sequences is modulo-hashing of the insertion
// counter (round-robin), which keeps shards balanced without any directory
// state.
//
// The package is deliberately ignorant of how a shard is built: it
// orchestrates over the Store interface, which *twsim.DB satisfies (the
// root package wires the two together; importing it from here would cycle).
package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/seq"
)

// Store is one partition: the slice of the single-database engine the
// router composes. All methods follow *twsim.DB semantics, including its
// concurrency contract: a Store is safe for concurrent use (readers share, a
// writer excludes everything on that partition), which is why the engine
// holds no lock per shard.
type Store interface {
	Add(values []float64) (seq.ID, error)
	AddAll(values [][]float64) (seq.ID, error)
	Remove(id seq.ID) (bool, error)
	Get(id seq.ID) ([]float64, error)
	// SearchCtx and NearestKStatsBandCtx take the context governing the
	// query (nil never cancels; a done context abandons the shard's work at
	// the next candidate boundary) and the Sakoe–Chiba band half-width the
	// query answers under (0 = unconstrained); each refines on the calling
	// goroutine. NearestKStatsBandCtx reports the query work alongside the
	// matches so the engine can accumulate k-NN traffic into the per-shard
	// counters.
	SearchCtx(ctx context.Context, query []float64, epsilon float64, band int) (*core.Result, error)
	NearestKStatsBandCtx(ctx context.Context, query []float64, k, band int, bound *core.SharedBound) ([]core.Match, core.QueryStats, error)
	StorageStats() core.StorageStats
	IndexEngineStats() core.IndexEngineStats
	OpenDiagnostics() []string
	Len() int
	DataBytes() int64
	IndexPages() int
	LastRepair() core.RepairStats
	Verify() error
	CheckInvariants() error
	Flush() error
	Close() error
}

// Engine routes operations across shards. It is safe for fully concurrent
// use because its Stores are: readers never block each other, and a writer
// blocks only operations on the same shard.
type Engine struct {
	stores      []Store
	counters    []queryCounters // cumulative per-shard query work
	next        atomic.Uint32   // insertion counter; placement = next mod N
	parallelism int             // fan-out worker bound per search
}

// New builds an engine over the given shards. parallelism bounds the
// per-search fan-out worker pool (<= 0 means GOMAXPROCS); each shard's part
// of a search refines on its fan-out worker.
func New(stores []Store, parallelism int) (*Engine, error) {
	if len(stores) == 0 {
		return nil, errors.New("shard: no shards")
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		stores:      stores,
		counters:    make([]queryCounters, len(stores)),
		parallelism: parallelism,
	}
	// Start the insertion counter past the current contents so placement
	// stays balanced when an existing database is reopened.
	total := 0
	for i := range stores {
		total += stores[i].Len()
	}
	e.next.Store(uint32(total))
	return e, nil
}

// NumShards returns the shard count.
func (e *Engine) NumShards() int { return len(e.stores) }

// ShardOf returns the shard owning the given global ID.
func (e *Engine) ShardOf(id seq.ID) int { return int(uint32(id) % uint32(len(e.stores))) }

// route splits a global ID into its owning shard and local ID.
func (e *Engine) route(id seq.ID) (shard int, local seq.ID) {
	n := uint32(len(e.stores))
	return int(uint32(id) % n), seq.ID(uint32(id) / n)
}

// globalID maps a shard-local ID back to the global ID space.
func (e *Engine) globalID(local seq.ID, shard int) seq.ID {
	return seq.ID(uint32(local)*uint32(len(e.stores)) + uint32(shard))
}

// GlobalID maps a shard-local ID back to the global ID space — the inverse
// of the routing split (global = local*N + shard). Exported for composite
// read paths built outside this package (the sharded subsequence index)
// whose per-shard results carry local IDs that must be lifted before the
// merge.
func (e *Engine) GlobalID(local seq.ID, shard int) seq.ID {
	return e.globalID(local, shard)
}

// Add stores one sequence in the next shard of the placement rotation; only
// that shard sees a writer.
func (e *Engine) Add(values []float64) (seq.ID, error) {
	si := int(e.next.Add(1)-1) % len(e.stores)
	local, err := e.stores[si].Add(values)
	if err != nil {
		return seq.InvalidID, err
	}
	return e.globalID(local, si), nil
}

// AddAll stores a batch, splitting it across shards along the placement
// rotation and loading the per-shard sub-batches concurrently. It returns
// the global ID of every stored sequence, in input order.
//
// Each per-shard sub-batch is atomic (Store.AddAll semantics). When one
// shard fails, sub-batches already stored on other shards are rolled back
// by removal, so no sequence of a failed batch remains visible — though the
// IDs consumed by the rolled-back sub-batches stay burned (IDs are never
// reused).
func (e *Engine) AddAll(values [][]float64) ([]seq.ID, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("shard: AddAll of empty batch: %w", seq.ErrEmpty)
	}
	n := len(e.stores)
	cursor := e.next.Add(uint32(len(values))) - uint32(len(values))
	perShard := make([][][]float64, n)
	slots := make([][]int, n) // original batch positions per shard
	for i, v := range values {
		si := int((cursor + uint32(i)) % uint32(n))
		perShard[si] = append(perShard[si], v)
		slots[si] = append(slots[si], i)
	}
	ids := make([]seq.ID, len(values))
	firsts := make([]seq.ID, n)
	stored := make([]bool, n)
	err := e.FanOut(func(si int) error {
		if len(perShard[si]) == 0 {
			return nil
		}
		first, err := e.stores[si].AddAll(perShard[si])
		if err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
		firsts[si], stored[si] = first, true
		for j := range perShard[si] {
			ids[slots[si][j]] = e.globalID(first+seq.ID(j), si)
		}
		return nil
	})
	if err != nil {
		// Best-effort cross-shard rollback; whatever removal cannot undo is
		// gone from each shard's index at its next Open, which derives the
		// index from the heap.
		for si := range e.stores {
			if !stored[si] {
				continue
			}
			for j := range perShard[si] {
				_, _ = e.stores[si].Remove(firsts[si] + seq.ID(j))
			}
		}
		return nil, err
	}
	return ids, nil
}

// Get fetches a sequence from its owning shard.
func (e *Engine) Get(id seq.ID) ([]float64, error) {
	si, local := e.route(id)
	return e.stores[si].Get(local)
}

// Remove deletes a sequence from its owning shard.
func (e *Engine) Remove(id seq.ID) (bool, error) {
	si, local := e.route(id)
	return e.stores[si].Remove(local)
}

// Len returns the number of live sequences across all shards.
func (e *Engine) Len() int {
	total := 0
	for i := range e.stores {
		total += e.stores[i].Len()
	}
	return total
}

// DataBytes returns the logical data size summed over shards.
func (e *Engine) DataBytes() int64 {
	var total int64
	for i := range e.stores {
		total += e.stores[i].DataBytes()
	}
	return total
}

// IndexPages returns the index page count summed over shards.
func (e *Engine) IndexPages() int {
	total := 0
	for i := range e.stores {
		total += e.stores[i].IndexPages()
	}
	return total
}

// StorageStats aggregates the data heaps' buffer pool counters and the
// envelope stores' memory across shards.
func (e *Engine) StorageStats() core.StorageStats {
	var total core.StorageStats
	for i := range e.stores {
		total.Add(e.stores[i].StorageStats())
	}
	return total
}

// IndexEngineStats aggregates the feature-index engine counters across
// shards (snapshot generations, delta sizes, merge counts for the flat
// engine).
func (e *Engine) IndexEngineStats() core.IndexEngineStats {
	var total core.IndexEngineStats
	for i := range e.stores {
		total.Add(e.stores[i].IndexEngineStats())
	}
	return total
}

// OpenDiagnostics concatenates every shard's open-time notes, each prefixed
// with its shard number.
func (e *Engine) OpenDiagnostics() []string {
	var notes []string
	for i := range e.stores {
		for _, n := range e.stores[i].OpenDiagnostics() {
			notes = append(notes, fmt.Sprintf("shard %d: %s", i, n))
		}
	}
	return notes
}

// Verify runs each shard's full integrity check concurrently.
func (e *Engine) Verify() error {
	return e.FanOut(func(si int) error {
		if err := e.stores[si].Verify(); err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
		return nil
	})
}

// CheckInvariants validates every shard's index structure.
func (e *Engine) CheckInvariants() error {
	for si := range e.stores {
		if err := e.stores[si].CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
	}
	return nil
}

// Flush persists every shard.
func (e *Engine) Flush() error {
	var first error
	for si := range e.stores {
		if err := e.stores[si].Flush(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", si, err)
		}
	}
	return first
}

// Close closes every shard, returning the first error but always closing
// all of them.
func (e *Engine) Close() error {
	var first error
	for si := range e.stores {
		if err := e.stores[si].Close(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", si, err)
		}
	}
	return first
}

// FanOut runs fn(shard) for every shard on a worker pool bounded by the
// engine's parallelism, returning the first error. Remaining shards are
// still visited after an error (their work is skipped only by fn itself
// when it chooses to); FanOut guarantees fn was invoked for every shard
// index unless the pool saw the error before dispatching it. It holds no
// lock: fn synchronises through the Store methods it calls. Exported for
// composite read paths assembled outside this package (the sharded
// subsequence index builds and queries per-shard indexes through it).
func (e *Engine) FanOut(fn func(shard int) error) error {
	n := len(e.stores)
	workers := e.parallelism
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for si := 0; si < n; si++ {
			if err := fn(si); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for si := range work {
				mu.Lock()
				failed := firstErr != nil
				mu.Unlock()
				if failed {
					continue
				}
				if err := fn(si); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for si := 0; si < n; si++ {
		mu.Lock()
		failed := firstErr != nil
		mu.Unlock()
		if failed {
			break
		}
		work <- si
	}
	close(work)
	wg.Wait()
	return firstErr
}
