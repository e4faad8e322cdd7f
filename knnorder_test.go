package twsim_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	twsim "repro"
	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/seqdb"
)

// knnCorpus builds a deterministic random-walk corpus plus near-miss
// queries shared by the ordering-oracle tests.
func knnCorpus(rng *rand.Rand, n, length, queries int) (data, qs [][]float64) {
	data = make([][]float64, n)
	for i := range data {
		s := make([]float64, length)
		v := rng.NormFloat64()
		for j := range s {
			v += rng.NormFloat64() * 0.1
			s[j] = v
		}
		data[i] = s
	}
	qs = make([][]float64, queries)
	for i := range qs {
		q := append([]float64(nil), data[rng.Intn(n)]...)
		for j := range q {
			q[j] += (rng.Float64() - 0.5) * 0.1
		}
		qs[i] = q
	}
	return data, qs
}

// coreBackend answers range and k-NN queries through the paper's
// TW-Sim-Search (core.TWSimSearch) under any base distance, where a
// database answers L∞ only: the records sit in one in-memory heap with
// their envelopes, dealt round-robin by ID over parts indexes of one engine
// ("flat": core.FlatIndex, a database's own index; "guttman": the paper's
// R-tree, core.FeatureIndex). A range query runs on every index and merges
// by (Dist, ID); a k-NN query walks the indexes in turn under one shared
// bound, merged by (Dist, ID) and cut to k — the way the shard engine merges
// its shards' walks.
type coreBackend struct {
	base  twsim.Base
	store *seqdb.DB
	envs  *core.EnvStore
	parts []coreIndex
}

// coreIndex is what both engines offer a coreBackend.
type coreIndex interface {
	core.Index
	Insert(id seq.ID, s seq.Sequence) error
	CheckInvariants() error
	Len() int
	Close() error
}

func newCoreBackend(t *testing.T, engine string, base twsim.Base, parts int) *coreBackend {
	t.Helper()
	store, err := seqdb.NewMem(seqdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := &coreBackend{base: base, store: store, envs: core.NewEnvStore()}
	for range parts {
		var x coreIndex
		if engine == "flat" {
			x, err = core.NewFlatIndex(core.IndexOptions{})
		} else {
			x, err = core.NewFeatureIndex(core.IndexOptions{})
		}
		if err != nil {
			t.Fatal(err)
		}
		b.parts = append(b.parts, x)
	}
	return b
}

func (b *coreBackend) part(id twsim.ID) coreIndex { return b.parts[int(id)%len(b.parts)] }

func (b *coreBackend) searcher(x core.Index, band int) *core.TWSimSearch {
	return &core.TWSimSearch{DB: b.store, Index: x, Base: b.base, Band: band, Envs: b.envs}
}

func (b *coreBackend) AddBatch(data [][]float64) ([]twsim.ID, error) {
	ids := make([]twsim.ID, len(data))
	for i, s := range data {
		id, err := b.store.Append(s)
		if err != nil {
			return nil, err
		}
		pe, _ := seq.ExtractPAAEnvelope(s)
		b.envs.Put(id, pe)
		if err := b.part(id).Insert(id, s); err != nil {
			return nil, err
		}
		ids[i] = id
	}
	return ids, nil
}

func (b *coreBackend) Remove(id twsim.ID) (bool, error) {
	s, err := b.store.Get(id)
	if errors.Is(err, seqdb.ErrDeleted) || errors.Is(err, seqdb.ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if ok, err := b.store.Delete(id); !ok || err != nil {
		return ok, err
	}
	b.envs.Remove(id)
	switch x := b.part(id).(type) {
	case *core.FlatIndex:
		x.Drop(id, seq.MustFeature(s))
	case *core.FeatureIndex:
		_, err = x.Delete(id, s)
	}
	return true, err
}

func (b *coreBackend) SearchCtx(_ context.Context, q []float64, eps float64, band int) (*twsim.Result, error) {
	res := &twsim.Result{}
	for _, x := range b.parts {
		r, err := b.searcher(x, band).Search(q, eps)
		if err != nil {
			return nil, err
		}
		res.Matches = append(res.Matches, r.Matches...)
		res.Stats.Add(r.Stats)
	}
	sortByDistID(res.Matches)
	return res, nil
}

func (b *coreBackend) NearestKCtx(_ context.Context, q []float64, k, band int) (*twsim.Result, error) {
	bound := core.NewSharedBound()
	res := &twsim.Result{}
	for _, x := range b.parts {
		ms, st, err := b.searcher(x, band).NearestKSharedStats(q, k, bound)
		if err != nil {
			return nil, err
		}
		res.Matches = append(res.Matches, ms...)
		res.Stats.Add(st)
	}
	sortByDistID(res.Matches)
	res.Matches = res.Matches[:min(k, len(res.Matches))]
	res.Stats.Results = len(res.Matches)
	return res, nil
}

func (b *coreBackend) Len() int { return b.store.Len() }

// Verify checks every index's structure and that the indexes hold one
// entry per live record.
func (b *coreBackend) Verify() error {
	n := 0
	for _, x := range b.parts {
		if err := x.CheckInvariants(); err != nil {
			return err
		}
		n += x.Len()
	}
	if n != b.store.Len() {
		return fmt.Errorf("the indexes hold %d entries for %d live records", n, b.store.Len())
	}
	return nil
}

func (b *coreBackend) Close() error {
	for _, x := range b.parts {
		x.Close()
	}
	return b.store.Close()
}

// oracleBackend is what the root oracles query: a database (twsim.Backend)
// or a coreBackend.
type oracleBackend interface {
	AddBatch(values [][]float64) ([]twsim.ID, error)
	Remove(id twsim.ID) (bool, error)
	SearchCtx(ctx context.Context, q []float64, eps float64, band int) (*twsim.Result, error)
	NearestKCtx(ctx context.Context, q []float64, k, band int) (*twsim.Result, error)
	Len() int
	Verify() error
	Close() error
}

// openOracle opens what an oracle arm under base queries: a database (three
// shards of one when sharded) under L∞, the one base a database answers,
// and under an additive base a coreBackend over the flat engine (three
// partitions when sharded), so the l1 and l2sq arms hold TW-Sim-Search's
// additive answers to the same oracle.
func openOracle(t *testing.T, base twsim.Base, opts twsim.Options, sharded bool) oracleBackend {
	t.Helper()
	if base == twsim.BaseLInf {
		return openBackend(t, opts, sharded)
	}
	return newCoreBackend(t, "flat", base, map[bool]int{false: 1, true: 3}[sharded])
}

// TestNearestKOrderingOracle is the envelope-ordering bit-identity matrix:
// for every base × backend shape × engine × band × worker budget, the
// envelope-sharpened k-NN must return exactly the brute-force top-k — same
// IDs, same float64 distances, same order — for every query and k. The
// ordering tier re-keys candidates by sound lower bounds; it may only
// reorder and skip work, never change an answer (DESIGN.md §12). (The
// ordering-off engine path itself is compared in internal/core, where
// NoCascade lives.) The flat engine is a database's own index under L∞ and
// a coreBackend's flat index under an additive base; the guttman engine is
// the paper's R-tree under the same TW-Sim-Search (coreBackend), in one
// partition or, for the sharded shape, three walked under one shared bound.
func TestNearestKOrderingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	data, qs := knnCorpus(rng, 120, 64, 4)

	for _, base := range []twsim.Base{twsim.BaseLInf, twsim.BaseL1, twsim.BaseL2Sq} {
		for _, sharded := range []bool{false, true} {
			for _, engine := range []string{"guttman", "flat"} {
				for _, band := range []int{0, 8} {
					for _, workers := range []int{1, 4} {
						name := fmt.Sprintf("base=%v/sharded=%v/engine=%s/band=%d/workers=%d",
							base, sharded, engine, band, workers)
						t.Run(name, func(t *testing.T) {
							var db oracleBackend
							if engine == "guttman" {
								db = newCoreBackend(t, engine, base, map[bool]int{false: 1, true: 3}[sharded])
							} else {
								db = openOracle(t, base, twsim.Options{Band: band, RefineWorkers: workers}, sharded)
							}
							defer db.Close()
							ids, err := db.AddBatch(data)
							if err != nil {
								t.Fatal(err)
							}
							for qi, q := range qs {
								all := bruteScan(data, ids, q, base, math.Inf(1), band)
								for _, k := range []int{1, 7} {
									got, err := nearestK(db, q, k, band)
									if err != nil {
										t.Fatal(err)
									}
									if !matchesEqual(got, all[:k]) {
										t.Fatalf("query %d k=%d: ordered k-NN diverged from brute force: got=%v want=%v",
											qi, k, got, all[:k])
									}
								}
							}
						})
					}
				}
			}
		}
	}
}
