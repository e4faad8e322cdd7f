package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	twsim "repro"
	"repro/internal/benchkit"
	"repro/internal/core"
	"repro/internal/dtw"
	"repro/internal/seq"
	"repro/internal/seqdb"
	"repro/internal/server"
	"repro/internal/synth"
	"repro/internal/wal"
)

const (
	replayQueries = 200  // queries of the op list the traced replay re-runs
	replayWrites  = 200  // writes timed against scratch copies of the write-path layers
	insertProbe   = 2000 // single inserts timed per index engine
	shardSlice    = 20_000
	shardQueries  = 100
	seqCacheBytes = 4 << 20 // twsimd's -seq-cache-mb default, which the workloads leave alone
	// rtreeFile is the Guttman engine's page file inside a database
	// directory (the root package's indexFileName).
	rtreeFile = "feature.rtree"
	flatFile  = "feature.flat"
)

// rangeWalker is what the replay needs from either index engine.
type rangeWalker interface {
	RangeQueryEntries(fq seq.Feature, epsilon float64) ([]core.IndexEntry, error)
	NearestWalk(fq seq.Feature, fn func(id seq.ID, lowerBound float64) bool) error
}

// tracedLedger fills in the traced part of the per-layer ledger. The
// server has shut down; the directory it left behind is opened in-process
// (no second ingest) and the first queries of the op list are re-run stage
// by stage from outside, each stage a span around the call into the
// layer's exported function. The stages run one after another, so their
// sum only approximates the interleaved cascade: ledger.coverage says by
// how much.
func tracedLedger(pl map[string]float64, w benchkit.Workload, cfg runConfig, dbDir string, list *benchkit.List, corpus *benchkit.Corpus) error {
	nq := replayQueries
	if cfg.smoke {
		nq = 40
	}
	if nq > len(list.Queries) {
		nq = len(list.Queries)
	}
	kind, path := list.Kind, list.Kind.Path()

	// ---- the whole search and the handler around it, in-process ----
	// RefineWorkers 1: the ledger attributes CPU time, and the stage replay
	// below is serial, so the wall it is compared with must be too.
	opts := twsim.Options{RefineWorkers: 1, SeqCacheBytes: seqCacheBytes, WAL: hasFlag(w.Flags, "-wal"), WALCheckpointBytes: -1}
	db, err := twsim.Open(dbDir, opts)
	if err != nil {
		return err
	}
	srv := server.NewBackend(db)
	cutoffs := make([]float64, nq) // per query: epsilon, or the k-th best distance
	var handlerUS, searchUS float64
	for qi := 0; qi < nq; qi++ {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(list.Bodies[qi]))
		rec := httptest.NewRecorder()
		start := time.Now()
		srv.ServeHTTP(rec, req)
		took := time.Since(start)
		if rec.Code != http.StatusOK {
			db.Close()
			return fmt.Errorf("in-process %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		reply, err := benchkit.ParseQueryReply(rec.Body.Bytes())
		if err != nil {
			db.Close()
			return err
		}
		searchUS += float64(reply.Stats.WallMicros)
		handlerUS += float64(took)/float64(time.Microsecond) - float64(reply.Stats.WallMicros)
		cutoffs[qi] = list.Epsilon
		if kind == benchkit.KindKNN {
			cutoffs[qi] = reply.Matches[len(reply.Matches)-1].Dist
		}
	}
	if err := db.Close(); err != nil {
		return err
	}
	pl["server.handler_us_per_op"] = handlerUS / float64(nq)
	pl["core.search_ms_per_query"] = searchUS / float64(nq) / 1000

	// ---- the layers one by one, over the same directory ----
	store, err := seqdb.Open(dbDir, seqdb.Options{CacheBytes: seqCacheBytes})
	if err != nil {
		return err
	}
	defer store.Close()
	live := liveSequences(corpus, pl)
	engines, err := openEngines(dbDir, live)
	if err != nil {
		return err
	}
	defer engines.close()

	rp := &replay{list: list, store: store, idx: engines.serving, cutoffs: cutoffs}
	rp.run(benchkit.NewRecorder(false), nq/10+1) // warm the caches the two timed replays share
	off := rp.run(benchkit.NewRecorder(false), nq)
	rec := benchkit.NewRecorder(true)
	reads := engines.rtree.Stats().Reads
	rp.counts = stageCounts{}
	on := rp.run(rec, nq)
	if rp.err != nil {
		return rp.err
	}
	// Zero when the server's engine is the flat one: the replay then never
	// touches the R-tree.
	pl["rtree.node_reads_per_query"] = float64(engines.rtree.Stats().Reads-reads) / float64(nq)
	pl["trace.overhead_pct"] = 100 * (on.Seconds() - off.Seconds()) / off.Seconds()
	pl["trace.spans"] = float64(len(rec.Spans()))
	if cfg.traceOut != "" {
		if err := writeSpans(filepath.Join(cfg.traceOut, "trace-"+w.Name+".jsonl"), rec.Spans()); err != nil {
			return err
		}
	}

	self := benchkit.SelfTimes(rec.Spans())
	us := func(name string) float64 { return float64(self[name]) / float64(time.Microsecond) }
	per := func(total, n float64) float64 {
		if n == 0 {
			return 0
		}
		return total / n
	}
	c, n := rp.counts, float64(nq)
	pl["server.decode_us_per_op"] = us("server.decode") / n
	pl["server.encode_us_per_op"] = us("server.encode") / n
	pl["seqdb.get_us_per_fetch"] = per(us("seqdb.fetch"), float64(c.fetches))
	pl["dtw.envelope_us_per_query"] = us("dtw.envelope") / n
	pl["dtw.lb_keogh_ns_per_call"] = 1000 * per(us("dtw.lb_keogh"), float64(c.keogh))
	pl["dtw.lb_yi_ns_per_call"] = 1000 * per(us("dtw.lb_yi"), float64(c.yi))
	pl["dtw.lb_improved_ns_per_call"] = 1000 * per(us("dtw.lb_improved"), float64(c.improved))
	pl["dtw.dp_us_per_call"] = per(us("dtw.dp"), float64(c.dp))
	pl["dtw.dp_ms_per_query"] = us("dtw.dp") / n / 1000
	pl["dtw.dp_cells_per_query"] = float64(c.cells) / n
	stages := 0.0
	for _, name := range []string{"seq.feature", "index.walk", "seqdb.fetch", "dtw.envelope", "dtw.lb_keogh", "dtw.lb_yi", "dtw.lb_improved", "dtw.dp"} {
		stages += us(name) / n / 1000
	}
	pl["core.residual_ms_per_query"] = pl["core.search_ms_per_query"] - stages
	pl["ledger.coverage"] = stages / pl["core.search_ms_per_query"]

	// Both engines walk the same features for the same queries.
	for _, e := range []struct {
		name string
		idx  rangeWalker
	}{{"rtree", engines.rtree}, {"flatidx", engines.flat}} {
		rangeUS, knnUS := walkTimes(e.idx, list, cutoffs, nq)
		pl[e.name+".range_walk_us_per_query"] = rangeUS
		pl[e.name+".knn_walk_us_per_query"] = knnUS
	}
	if err := insertTimes(pl, live, cfg.seed); err != nil {
		return err
	}
	if err := writePathTimes(pl, w, cfg, dbDir, live.seqs[:min(replayWrites, len(live.seqs))]); err != nil {
		return err
	}
	return shardSlowdown(pl, list, live.seqs[:min(shardSlice, len(live.seqs))])
}

// liveCorpus is the client's copy of the live sequences with the features
// and PAA envelopes the index engines are packed from.
type liveCorpus struct {
	ids   []seq.ID
	seqs  []seq.Sequence
	feats []seq.Feature
	envs  []seq.PAAEnvelope
}

// liveSequences extracts every live sequence's feature and PAA envelope,
// timing both over the whole corpus: what every ingest and every write
// pays per sequence.
func liveSequences(corpus *benchkit.Corpus, pl map[string]float64) *liveCorpus {
	lc := &liveCorpus{}
	corpus.Each(func(id uint32, s seq.Sequence) {
		lc.ids = append(lc.ids, seq.ID(id))
		lc.seqs = append(lc.seqs, s)
	})
	lc.feats = make([]seq.Feature, len(lc.seqs))
	lc.envs = make([]seq.PAAEnvelope, len(lc.seqs))
	start := time.Now()
	for i, s := range lc.seqs {
		lc.feats[i] = seq.MustFeature(s)
	}
	pl["seq.feature_us_per_seq"] = float64(time.Since(start)) / float64(time.Microsecond) / float64(len(lc.seqs))
	start = time.Now()
	for i, s := range lc.seqs {
		lc.envs[i], _ = seq.ExtractPAAEnvelope(s) // errs only on an empty sequence; the server stores none
	}
	pl["seq.paa_us_per_seq"] = float64(time.Since(start)) / float64(time.Microsecond) / float64(len(lc.seqs))
	return lc
}

// engines holds both index engines over the same entries: the one the
// server persisted is opened from its file, the other is packed in memory
// from the first one's entries.
type engines struct {
	rtree   *core.FeatureIndex
	flat    *core.FlatIndex
	serving rangeWalker
}

func (e *engines) close() {
	e.rtree.Close()
	e.flat.Close()
}

// openEngines opens whichever index file the server left and packs the
// other engine in memory from the same features.
func openEngines(dbDir string, live *liveCorpus) (*engines, error) {
	e := &engines{}
	var err error
	if _, statErr := os.Stat(filepath.Join(dbDir, rtreeFile)); statErr == nil {
		e.rtree, err = core.OpenFeatureIndex(filepath.Join(dbDir, rtreeFile), core.IndexOptions{})
		e.serving = e.rtree
	} else {
		if e.rtree, err = core.NewFeatureIndex(core.IndexOptions{}); err == nil {
			err = e.rtree.BulkLoad(live.ids, live.feats)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("rtree engine: %w", err)
	}
	if _, statErr := os.Stat(filepath.Join(dbDir, flatFile)); statErr == nil {
		e.flat, err = core.OpenFlatIndex(filepath.Join(dbDir, flatFile), core.IndexOptions{})
		e.serving = e.flat
	} else {
		if e.flat, err = core.NewFlatIndex(core.IndexOptions{}); err == nil {
			err = e.flat.BulkLoadEnv(live.ids, live.feats, live.envs)
		}
	}
	if err != nil {
		e.rtree.Close()
		return nil, fmt.Errorf("flat engine: %w", err)
	}
	return e, nil
}

// stageCounts are the counts taken at the stage boundaries.
type stageCounts struct {
	fetches, keogh, yi, improved, dp int
	cells                            int64
}

// replay re-runs queries stage by stage against the layers' exported
// functions.
type replay struct {
	list    *benchkit.List
	store   *seqdb.DB
	idx     rangeWalker
	cutoffs []float64
	counts  stageCounts
	err     error
}

type candidate struct {
	id seq.ID
	s  seq.Sequence
}

// run replays the first n queries and returns the wall time of the loop.
func (rp *replay) run(rec *benchkit.Recorder, n int) time.Duration {
	start := time.Now()
	for qi := 0; qi < n && rp.err == nil; qi++ {
		rp.err = rp.query(rec, qi)
	}
	return time.Since(start)
}

func (rp *replay) query(rec *benchkit.Recorder, qi int) error {
	base, band, cutoff := seq.LInf, rp.list.Band, rp.cutoffs[qi]
	root := rec.Begin("query", -1, qi)

	// server.decode: the handler's own decoding of the request body.
	sp := rec.Begin("server.decode", root, qi)
	var req struct {
		Query   []float64 `json:"query"`
		Epsilon float64   `json:"epsilon"`
		K       int       `json:"k"`
		Band    *int      `json:"band"`
	}
	dec := json.NewDecoder(bytes.NewReader(rp.list.Bodies[qi]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return err
	}
	rec.End(sp, len(rp.list.Bodies[qi]), len(req.Query))
	q := seq.Sequence(req.Query)

	sp = rec.Begin("seq.feature", root, qi)
	fq, err := seq.ExtractFeature(q)
	if err != nil {
		return err
	}
	rec.End(sp, len(q), 4)

	// index.walk: the range query, or the nearest-neighbour stream cut at
	// the k-th best distance the real search ended with.
	sp = rec.Begin("index.walk", root, qi)
	var ids []seq.ID
	if rp.list.Kind == benchkit.KindKNN {
		err = rp.idx.NearestWalk(fq, func(id seq.ID, lb float64) bool {
			if lb > cutoff {
				return false
			}
			ids = append(ids, id)
			return true
		})
	} else {
		var entries []core.IndexEntry
		entries, err = rp.idx.RangeQueryEntries(fq, cutoff)
		for _, e := range entries {
			ids = append(ids, e.ID)
		}
	}
	if err != nil {
		return err
	}
	rec.End(sp, 1, len(ids))

	sp = rec.Begin("seqdb.fetch", root, qi)
	cands := make([]candidate, 0, len(ids))
	for _, id := range ids {
		s, err := rp.store.Get(id)
		if err != nil {
			continue // dangling entry, as the cascade skips it
		}
		cands = append(cands, candidate{id, s})
	}
	rec.End(sp, len(ids), len(cands))
	rp.counts.fetches += len(ids)

	sp = rec.Begin("dtw.envelope", root, qi)
	global := dtw.GlobalEnvelope(q)
	var banded dtw.Envelope
	if band >= 1 {
		banded = dtw.NewEnvelope(q, band)
	}
	rec.End(sp, len(q), len(q))

	sp = rec.Begin("dtw.lb_keogh", root, qi)
	in := len(cands)
	kept := cands[:0]
	for _, c := range cands {
		var lb float64
		if band >= 1 && len(c.s) == len(q) {
			lb, err = dtw.LBKeoghSafe(c.s, banded, base, band)
		} else {
			lb, err = dtw.LBKeoghSafe(c.s, global, base, -1)
		}
		if err != nil {
			return err
		}
		if lb <= cutoff {
			kept = append(kept, c)
		}
	}
	cands = kept
	rec.End(sp, in, len(cands))
	rp.counts.keogh += in

	sp = rec.Begin("dtw.lb_yi", root, qi)
	in = len(cands)
	kept = cands[:0]
	for _, c := range cands {
		if dtw.LBYi(c.s, q, base) <= cutoff {
			kept = append(kept, c)
		}
	}
	cands = kept
	rec.End(sp, in, len(cands))
	rp.counts.yi += in

	if band >= 1 {
		sp = rec.Begin("dtw.lb_improved", root, qi)
		in = len(cands)
		kept = cands[:0]
		for _, c := range cands {
			if len(c.s) == len(q) {
				lb, err := dtw.LBImproved(c.s, q, banded, base, band)
				if err != nil {
					return err
				}
				rp.counts.improved++
				if lb > cutoff {
					continue
				}
			}
			kept = append(kept, c)
		}
		cands = kept
		rec.End(sp, in, len(cands))
	}

	// dtw.dp: the exact kernel the cascade ends in.
	sp = rec.Begin("dtw.dp", root, qi)
	in = len(cands)
	resp := server.SearchResponse{Matches: make([]server.MatchJSON, 0, len(cands))}
	refiner := dtw.AcquireRefiner()
	for _, c := range cands {
		var d float64
		var ok bool
		if band >= 1 {
			d, ok = dtw.BandDistanceWithin(c.s, q, base, band, cutoff)
			rp.counts.cells += bandCells(len(c.s), len(q), band)
		} else {
			var v dtw.Verdict
			d, v = refiner.DistanceWithin(c.s, q, base, cutoff)
			ok = v == dtw.VerdictWithin
			rp.counts.cells += int64(len(c.s)) * int64(len(q))
		}
		if ok {
			resp.Matches = append(resp.Matches, server.MatchJSON{ID: uint32(c.id), Dist: d})
		}
	}
	refiner.Release()
	rec.End(sp, in, len(resp.Matches))
	rp.counts.dp += in

	sp = rec.Begin("server.encode", root, qi)
	resp.Stats.Candidates, resp.Stats.Results = len(ids), len(resp.Matches)
	if err := json.NewEncoder(io.Discard).Encode(&resp); err != nil {
		return err
	}
	rec.End(sp, len(resp.Matches), 0)
	rec.End(root, 1, len(resp.Matches))
	return nil
}

// bandCells is the number of DP cells inside a Sakoe–Chiba band of
// half-width r for an n × m matrix: computed, so it repeats exactly.
func bandCells(n, m, r int) int64 {
	var cells int64
	for i := 0; i < n; i++ {
		lo, hi := i-r, i+r
		if lo < 0 {
			lo = 0
		}
		if hi > m-1 {
			hi = m - 1
		}
		if hi >= lo {
			cells += int64(hi - lo + 1)
		}
	}
	return cells
}

// walkTimes times the bare index walks of the replayed queries on one
// engine: the range walk at the workload's tolerance (0.2 for k-NN
// workloads, which have none) and the k-NN stream cut at each query's
// final k-th distance (the tolerance for range workloads).
func walkTimes(idx rangeWalker, list *benchkit.List, cutoffs []float64, n int) (rangeUS, knnUS float64) {
	eps := list.Epsilon
	if eps == 0 {
		eps = 0.2
	}
	feats := make([]seq.Feature, n)
	for qi := range feats {
		feats[qi] = seq.MustFeature(list.Queries[qi])
	}
	start := time.Now()
	for _, fq := range feats {
		_, _ = idx.RangeQueryEntries(fq, eps)
	}
	rangeUS = float64(time.Since(start)) / float64(time.Microsecond) / float64(n)
	start = time.Now()
	for qi, fq := range feats {
		cutoff := cutoffs[qi]
		_ = idx.NearestWalk(fq, func(_ seq.ID, lb float64) bool { return lb <= cutoff })
	}
	knnUS = float64(time.Since(start)) / float64(time.Microsecond) / float64(n)
	return rangeUS, knnUS
}

// insertTimes times single inserts into in-memory copies of both engines
// already holding the corpus: what an add pays in the index.
func insertTimes(pl map[string]float64, live *liveCorpus, seed int64) error {
	ids, feats := live.ids, live.feats
	rng := rand.New(rand.NewSource(seed + 3))
	fresh := make([]seq.Sequence, insertProbe)
	for i := range fresh {
		fresh[i] = synth.RandomWalk(rng, len(live.seqs[i%len(live.seqs)]))
	}
	nextID := ids[len(ids)-1] + 1

	rt, err := core.NewFeatureIndex(core.IndexOptions{})
	if err != nil {
		return err
	}
	defer rt.Close()
	if err := rt.BulkLoad(ids, feats); err != nil {
		return err
	}
	start := time.Now()
	for i, s := range fresh {
		if err := rt.Insert(nextID+seq.ID(i), s); err != nil {
			return err
		}
	}
	pl["rtree.insert_us_per_seq"] = float64(time.Since(start)) / float64(time.Microsecond) / insertProbe

	fl, err := core.NewFlatIndex(core.IndexOptions{})
	if err != nil {
		return err
	}
	defer fl.Close()
	if err := fl.BulkLoad(ids, feats); err != nil {
		return err
	}
	start = time.Now()
	for i, s := range fresh {
		if err := fl.Insert(nextID+seq.ID(i), s); err != nil {
			return err
		}
	}
	pl["flatidx.insert_us_per_seq"] = float64(time.Since(start)) / float64(time.Microsecond) / insertProbe
	return nil
}

// writePathTimes times the layers under a write, each on its own scratch
// file: heap append, WAL append with an immediate fsync, and the
// checkpoint (a full DB.Flush of the reopened directory after a burst of
// adds).
func writePathTimes(pl map[string]float64, w benchkit.Workload, cfg runConfig, dbDir string, fresh []seq.Sequence) error {
	scratch := filepath.Join(cfg.workDir, w.Name, "scratch")
	heap, err := seqdb.Create(filepath.Join(scratch, "heap"), seqdb.Options{})
	if err != nil {
		return err
	}
	start := time.Now()
	for _, s := range fresh {
		if _, err := heap.Append(s); err != nil {
			heap.Close()
			return err
		}
	}
	pl["seqdb.append_us_per_seq"] = float64(time.Since(start)) / float64(time.Microsecond) / float64(len(fresh))
	if err := heap.Close(); err != nil {
		return err
	}

	log, err := wal.Create(filepath.Join(scratch, "probe.wal"), 1, wal.Options{FlushInterval: -1})
	if err != nil {
		return err
	}
	start = time.Now()
	for i, s := range fresh {
		if err := log.Append(wal.NewAdd(seq.ID(i), s)); err != nil {
			log.Close()
			return err
		}
	}
	pl["wal.append_us_per_record"] = float64(time.Since(start)) / float64(time.Microsecond) / float64(len(fresh))
	if err := log.Close(); err != nil {
		return err
	}

	db, err := twsim.Open(dbDir, twsim.Options{SeqCacheBytes: seqCacheBytes, WAL: hasFlag(w.Flags, "-wal"), WALCheckpointBytes: -1})
	if err != nil {
		return err
	}
	for _, s := range fresh {
		if _, err := db.Add(s); err != nil {
			db.Close()
			return err
		}
	}
	start = time.Now()
	if err := db.Flush(); err != nil {
		db.Close()
		return err
	}
	pl["wal.checkpoint_ms"] = float64(time.Since(start)) / float64(time.Millisecond)
	return db.Close()
}

// shardSlowdown records what hash-partitioning costs today: the wall of
// the same sampled queries on an in-memory 2-shard database over the wall
// on a single one holding the same slice of the corpus.
func shardSlowdown(pl map[string]float64, list *benchkit.List, seqs []seq.Sequence) error {
	slice := make([][]float64, len(seqs))
	for i, s := range seqs {
		slice[i] = s
	}
	single, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		return err
	}
	defer single.Close()
	if _, err := single.AddAll(slice); err != nil {
		return err
	}
	sharded, err := twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 2})
	if err != nil {
		return err
	}
	defer sharded.Close()
	if _, err := sharded.AddBatch(slice); err != nil {
		return err
	}
	nq := shardQueries
	if nq > len(list.Queries) {
		nq = len(list.Queries)
	}
	ctx := context.Background()
	ask := func(b twsim.Backend) (time.Duration, error) {
		start := time.Now()
		for _, q := range list.Queries[:nq] {
			var err error
			if list.Kind == benchkit.KindKNN {
				_, err = b.NearestKCtx(ctx, q, list.K, list.Band)
			} else {
				_, err = b.SearchCtx(ctx, q, list.Epsilon, list.Band)
			}
			if err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	one, err := ask(single)
	if err != nil {
		return err
	}
	two, err := ask(sharded)
	if err != nil {
		return err
	}
	pl["shard.slowdown_2shards"] = two.Seconds() / one.Seconds()
	return nil
}

func writeSpans(path string, spans []benchkit.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := benchkit.WriteJSONL(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
