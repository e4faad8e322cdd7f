// Package server exposes a twsim database over HTTP with a JSON API — the
// deployment form a downstream user runs (cmd/twsimd) when the library is
// embedded in a service rather than a process. Endpoints:
//
//	GET    /healthz                       liveness probe
//	GET    /metrics                       Prometheus text exposition
//	GET    /stats                         database statistics
//	POST   /sequences                     {"values": [...]} -> {"id": n}
//	POST   /sequences/batch               {"sequences": [[...], ...]} -> {"first_id": n, "count": k, "ids": [...]}
//	GET    /sequences/{id}                -> {"id": n, "values": [...]}
//	DELETE /sequences/{id}                -> {"removed": bool}
//	POST   /search                        {"query": [...], "epsilon": e, "band": r?} -> matches + stats
//	POST   /knn                           {"query": [...], "k": n, "band": r?} -> matches
//	POST   /subseq/build                  {"window_lens": [...], "step": n} -> {"windows": n}
//	POST   /subseq/search                 {"query": [...], "epsilon": e} -> window matches
//
// The server runs against any twsim.Backend and adds no lock around it:
// both engines synchronise themselves. A single *twsim.DB serialises its
// writers behind its own lock; in a *twsim.ShardedDB each shard does, so
// POSTs to different shards proceed concurrently, and /stats adds a
// per-shard breakdown ("shards": [{id, sequences, pages, repair, queries},
// ...]) for spotting skew. /stats always carries "query_totals" — the
// cumulative /search work counters including the refinement cascade's
// per-tier prune counts, which each /search response also reports for its
// own query — plus "result_cache" (the whole-query cache counters) and
// "admission" (in-flight limits and shed/cancelled/deadline outcomes).
// The subsequence endpoints work on both engine shapes: a sharded backend
// builds one window index per shard and merges fan-out results into the
// global ID space. Every error returns JSON {"error": "..."} with an
// appropriate status code; queries containing NaN or ±Inf are rejected
// with 400 (twsim.ErrNonFinite). Queries abandoned because the client
// disconnected answer 499 (nginx's convention); queries past
// Options.QueryDeadline answer 503; queries shed at admission control
// (NewBackendLimits) answer 429 with a Retry-After header.
//
// Observability: every endpoint is instrumented with request counters (by
// status class) and latency histograms, exported together with the query
// totals, cascade prune counters, buffer pool and sequence-cache counters
// on GET /metrics in the Prometheus text format (see metrics.go for the
// catalog). /search and /knn responses carry the request_id the slow-query
// log records.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	twsim "repro"
	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/seqdb"
)

// StatusClientClosedRequest is the non-standard status (nginx's 499)
// reported when a query was abandoned because the client disconnected
// before the answer was computed. The response is never seen by that
// client; the status exists for the access-side metrics.
const StatusClientClosedRequest = 499

// MaxBodyBytes bounds request bodies to keep a misbehaving client from
// exhausting memory (16 MiB ≈ a 2M-element sequence). A body is read whole
// before it is decoded, so any body over the cap answers 413, whatever its
// content.
const MaxBodyBytes = 16 << 20

// Limits configures the admission-control tier in front of the endpoints
// that burn CPU on DTW work or a heap scan: /search, /knn, /subseq/build and
// /subseq/search. The zero value disables admission control.
type Limits struct {
	// MaxInflight bounds the queries executing concurrently. 0 disables
	// admission control entirely (no semaphore, no queue, no shedding).
	MaxInflight int
	// QueueDepth bounds the queries waiting for an execution slot once
	// MaxInflight are running; an arrival finding the queue full is shed
	// with 429 and a Retry-After header. 0 means no waiting: every arrival
	// beyond MaxInflight is shed immediately.
	QueueDepth int
	// RetryAfterSeconds is the Retry-After value sent with a 429
	// (0 = 1 second).
	RetryAfterSeconds int
}

func (l Limits) retryAfter() string {
	if l.RetryAfterSeconds <= 0 {
		return "1"
	}
	return strconv.Itoa(l.RetryAfterSeconds)
}

// Server is an http.Handler serving one twsim.Backend.
type Server struct {
	backend twsim.Backend
	smu     sync.RWMutex       // guards subseq; taken before the backend's own locks
	subseq  *twsim.SubseqIndex // built on demand via /subseq/build
	totals  queryTotals        // cumulative /search + /knn work since the server started
	metrics *serverMetrics     // obs registry + per-endpoint instruments (/metrics)
	mux     *http.ServeMux

	// Replication (see repl.go). primary is the backend when it is a single
	// database — the only engine shape that serves /repl/* in
	// v1. readOnly switches every mutating endpoint to 403 (replica mode);
	// replica carries the lag the status endpoints export.
	primary  *twsim.DB
	readOnly atomic.Bool
	replica  atomic.Pointer[Replica]

	// Admission control (see Limits). sem is nil when disabled; queued
	// tracks the waiters so arrivals beyond the queue depth shed fast.
	limits Limits
	sem    chan struct{}
	queued atomic.Int64
	// Traffic-shaping outcome counters, exported on /metrics and /stats:
	// queries shed at admission (429), abandoned because the client
	// disconnected (499), and abandoned on the per-query deadline (503).
	shed, cancelled, deadlineExceeded atomic.Int64
}

// queryTotals accumulates the work counters of every /search and /knn the
// server has answered, lock-free so concurrent searches never serialize on
// accounting. /stats reports the snapshot as "query_totals" and /metrics
// exports the same atomics as twsim_* counters, giving operators the
// cascade's prune rates in production without scraping per-query responses.
// The counters satisfy the conservation law
// candidates = lb_paa + lb_keogh + corridor + dtw_calls
// (dangling-entry skips aside), which the metrics tests assert.
type queryTotals struct {
	searches, candidates, results atomic.Int64
	dtwCalls, dtwAbandoned        atomic.Int64
	lbPAAPruned, lbKeoghPruned    atomic.Int64
	corridorPruned                atomic.Int64
	knnRepushes, knnEnvCutoffs    atomic.Int64
}

func (t *queryTotals) accumulate(st twsim.QueryStats) {
	t.searches.Add(1)
	t.candidates.Add(int64(st.Candidates))
	t.results.Add(int64(st.Results))
	t.dtwCalls.Add(int64(st.DTWCalls))
	t.dtwAbandoned.Add(int64(st.DTWAbandoned))
	t.lbPAAPruned.Add(int64(st.LBPAAPruned))
	t.lbKeoghPruned.Add(int64(st.LBKeoghPruned))
	t.corridorPruned.Add(int64(st.CorridorPruned))
	t.knnRepushes.Add(int64(st.KNNRepushes))
	t.knnEnvCutoffs.Add(int64(st.KNNEnvCutoffs))
}

func (t *queryTotals) json() map[string]any {
	return map[string]any{
		"searches":             t.searches.Load(),
		"candidates":           t.candidates.Load(),
		"results":              t.results.Load(),
		"dtw_calls":            t.dtwCalls.Load(),
		"dtw_abandoned":        t.dtwAbandoned.Load(),
		"lb_paa_pruned":        t.lbPAAPruned.Load(),
		"lb_keogh_pruned":      t.lbKeoghPruned.Load(),
		"corridor_pruned":      t.corridorPruned.Load(),
		"knn_repushes":         t.knnRepushes.Load(),
		"knn_envelope_cutoffs": t.knnEnvCutoffs.Load(),
	}
}

// New wraps a single database in a Server. The Server assumes ownership of
// queries but not of the database lifecycle: callers still Close the db.
func New(db *twsim.DB) *Server { return NewBackend(db) }

// NewBackend wraps any Backend in a Server. The backend is served as given:
// a Backend is safe for concurrent use, so concurrent requests flow through
// untouched.
func NewBackend(b twsim.Backend) *Server { return NewBackendLimits(b, Limits{}) }

// NewBackendLimits is NewBackend with admission control: at most
// limits.MaxInflight queries execute at once, up to limits.QueueDepth more
// wait for a slot (abandoning the wait if the client disconnects), and any
// further arrival is shed immediately with 429 + Retry-After. Mutation and
// introspection endpoints are not throttled — only /search, /knn,
// /subseq/build and /subseq/search, the handlers that burn CPU on DTW work
// or a heap scan.
func NewBackendLimits(b twsim.Backend, limits Limits) *Server {
	s := &Server{backend: b, mux: http.NewServeMux(), limits: limits}
	s.primary, _ = b.(*twsim.DB)
	if limits.MaxInflight > 0 {
		s.sem = make(chan struct{}, limits.MaxInflight)
	}
	s.metrics = newServerMetrics(s)
	s.mux.HandleFunc("/healthz", s.instrument("healthz", s.handleHealth))
	s.mux.HandleFunc("/metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("/stats", s.instrument("stats", s.handleStats))
	s.mux.HandleFunc("/sequences", s.instrument("sequences", s.handleSequences))
	s.mux.HandleFunc("/sequences/", s.instrument("sequence_by_id", s.handleSequenceByID))
	s.mux.HandleFunc("/sequences/batch", s.instrument("batch", s.handleBatch))
	s.mux.HandleFunc("/search", s.instrument("search", s.handleSearch))
	s.mux.HandleFunc("/knn", s.instrument("knn", s.handleKNN))
	s.mux.HandleFunc("/subseq/build", s.instrument("subseq_build", s.handleSubseqBuild))
	s.mux.HandleFunc("/subseq/search", s.instrument("subseq_search", s.handleSubseqSearch))
	s.mux.HandleFunc("/repl/status", s.instrument("repl_status", s.handleReplStatus))
	s.mux.HandleFunc("/repl/snapshot", s.instrument("repl_snapshot", s.handleReplSnapshot))
	s.mux.HandleFunc("/repl/wal", s.instrument("repl_wal", s.handleReplWAL))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// ---- wire types ----

// MatchJSON is one whole-matching result on the wire.
type MatchJSON struct {
	ID   uint32  `json:"id"`
	Dist float64 `json:"dist"`
}

// SubMatchJSON is one subsequence result on the wire.
type SubMatchJSON struct {
	ID     uint32  `json:"id"`
	Offset int     `json:"offset"`
	Len    int     `json:"len"`
	Dist   float64 `json:"dist"`
}

// StatsJSON summarizes per-query work on the wire. The per-tier prune
// counters were added with the refinement cascade; they are additive
// fields, so pre-cascade clients keep decoding the original shape.
// LBPAAPruned counts the candidates dismissed before the heap fetch on the
// stored PAA envelope, banded (LB_PAA) or not (the decision at ε over the
// 16 stored segments).
type StatsJSON struct {
	Candidates     int   `json:"candidates"`
	Results        int   `json:"results"`
	DTWCalls       int   `json:"dtw_calls"`
	LBPAAPruned    int   `json:"lb_paa_pruned"`
	LBKeoghPruned  int   `json:"lb_keogh_pruned"`
	CorridorPruned int   `json:"corridor_pruned"`
	DTWAbandoned   int   `json:"dtw_abandoned"`
	WallMicros     int64 `json:"wall_us"`
}

// SearchResponse is the /search (and /knn) reply. RequestID is the
// process-unique query identifier the slow-query log records; joining the
// two attributes a logged slow query to the client that sent it. CacheHit
// reports the answer came from the result cache without touching the index
// (the stats' work counters are all zero then).
type SearchResponse struct {
	Matches   []MatchJSON `json:"matches"`
	Stats     StatsJSON   `json:"stats"`
	RequestID uint64      `json:"request_id"`
	CacheHit  bool        `json:"cache_hit,omitempty"`
}

// ---- admission control ----

// admit gates a query behind the admission semaphore. It returns a release
// func and true when the query may run; otherwise it has already written
// the refusal (429 when shed, 499 when the client gave up while queued)
// and returns false. With admission control disabled it is a no-op.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if s.sem == nil {
		return func() {}, true
	}
	// Fast path: a slot is free.
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
	}
	// All slots busy: queue if there is room, else shed. The counter is
	// incremented optimistically so two racing arrivals cannot both sneak
	// into the last queue slot.
	if s.queued.Add(1) > int64(s.limits.QueueDepth) {
		s.queued.Add(-1)
		s.shed.Add(1)
		w.Header().Set("Retry-After", s.limits.retryAfter())
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("server overloaded (%d in flight, %d queued); retry later",
				s.limits.MaxInflight, s.limits.QueueDepth))
		return nil, false
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	case <-r.Context().Done():
		s.cancelled.Add(1)
		writeError(w, StatusClientClosedRequest, r.Context().Err())
		return nil, false
	}
}

// queryError maps a failed query to its status: 499 when the client
// disconnected mid-query, 503 when the per-query deadline expired, else
// errorStatus's 400 for a refused input or 500 for a storage failure. The
// outcome counters feed /metrics and /stats.
func (s *Server) queryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		s.cancelled.Add(1)
		writeError(w, StatusClientClosedRequest, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.deadlineExceeded.Add(1)
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, errorStatus(err), err)
	}
}

// ---- handlers ----

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func shardQueriesJSON(qt twsim.QueryTotals) map[string]any {
	return map[string]any{
		"searches":             qt.Searches,
		"candidates":           qt.Candidates,
		"dtw_calls":            qt.DTWCalls,
		"dtw_abandoned":        qt.DTWAbandoned,
		"lb_paa_pruned":        qt.LBPAAPruned,
		"lb_keogh_pruned":      qt.LBKeoghPruned,
		"corridor_pruned":      qt.CorridorPruned,
		"knn_repushes":         qt.KNNRepushes,
		"knn_envelope_cutoffs": qt.KNNEnvCutoffs,
	}
}

// storageJSON renders the data pool's counters with the derived hit ratio
// (pagefile.Stats.HitRatio — 0 before any traffic).
func storageJSON(st twsim.StorageStats) map[string]any {
	return map[string]any{
		"data_pool": map[string]any{
			"reads":      st.Data.Reads,
			"misses":     st.Data.Misses,
			"seq_misses": st.Data.SeqMisses,
			"writes":     st.Data.Writes,
			"hit_ratio":  st.Data.HitRatio(),
		},
	}
}

func repairJSON(rs twsim.RepairStats) map[string]any {
	return map[string]any{
		"repaired": rs.Repaired(),
		"rebuilt":  rs.Rebuilt,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w)
		return
	}
	ies := s.backend.IndexEngineStats()
	rcs := s.backend.ResultCacheStats()
	out := map[string]any{
		"sequences":    s.backend.Len(),
		"data_bytes":   s.backend.DataBytes(),
		"index_pages":  s.backend.IndexPages(),
		"repair":       repairJSON(s.backend.LastRepair()),
		"query_totals": s.totals.json(),
		"storage":      storageJSON(s.backend.StorageStats()),
		"index_engine": map[string]any{
			"engine":              ies.Engine,
			"snapshot_generation": ies.Generation,
			"delta_entries":       ies.DeltaEntries,
			"merges":              ies.Merges,
			"slab_bytes":          ies.SlabBytes,
		},
		"result_cache": map[string]any{
			"hits":          rcs.Hits,
			"misses":        rcs.Misses,
			"evictions":     rcs.Evictions,
			"invalidations": rcs.Invalidations,
			"revalidations": rcs.Revalidations,
			"bytes":         rcs.Bytes,
			"entries":       rcs.Entries,
			"hit_ratio":     rcs.HitRatio(),
		},
		"admission": map[string]any{
			"max_inflight":      s.limits.MaxInflight,
			"queue_depth":       s.limits.QueueDepth,
			"queued":            s.queued.Load(),
			"shed":              s.shed.Load(),
			"cancelled":         s.cancelled.Load(),
			"deadline_exceeded": s.deadlineExceeded.Load(),
		},
	}
	walEnabled := s.primary != nil && s.primary.WALEnabled()
	if ws := s.backend.WALStats(); walEnabled || ws.Records > 0 || ws.Seq > 0 || ws.Checkpoints > 0 {
		out["wal"] = map[string]any{
			"records":     ws.Records,
			"batches":     ws.Batches,
			"fsyncs":      ws.Fsyncs,
			"bytes":       ws.Bytes,
			"checkpoints": ws.Checkpoints,
			"seq":         ws.Seq,
			"durable_seq": ws.Durable,
			"file_bytes":  ws.FileBytes,
		}
	}
	if rep := s.replica.Load(); rep != nil {
		lag := rep.Lag()
		out["replica"] = map[string]any{
			"primary":          rep.PrimaryURL(),
			"applied_seq":      lag.AppliedSeq,
			"primary_seq":      lag.PrimarySeq,
			"generation_delta": lag.GenerationDelta,
			"lag_seconds":      lag.Seconds,
			"resyncs":          lag.Resyncs,
			"last_error":       rep.LastError(),
		}
	}
	// Sharded backends additionally report a per-shard breakdown so
	// operators can spot skew — in storage (sequences, pages) and in query
	// work (the engine's own cumulative counters, which also cover
	// NearestK and batch traffic the flat totals see only as one search);
	// the single-DB shape stays flat.
	if sb, ok := s.backend.(interface{ ShardStats() []twsim.ShardStat }); ok {
		stats := sb.ShardStats()
		shards := make([]map[string]any, len(stats))
		for i, st := range stats {
			shards[i] = map[string]any{
				"id":         st.ID,
				"sequences":  st.Sequences,
				"data_bytes": st.DataBytes,
				"pages":      st.IndexPages,
				"repair":     repairJSON(st.Repair),
				"queries":    shardQueriesJSON(st.Queries),
			}
		}
		out["shards"] = shards
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSequences(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w)
		return
	}
	if s.denyWrites(w) {
		return
	}
	var req valuesRequest
	if !decodeBody(w, r, &req) {
		return
	}
	id, err := s.backend.Add(req.Values)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]uint32{"id": uint32(id)})
}

// errorStatus is the status of a refused write, query or subsequence build:
// 400 for input no database accepts (a non-finite element, an empty
// sequence, batch or query, a build's window lengths or window count), 500
// for everything else — a failed heap write or read, a page that failed its
// checksum, or a failed WAL fsync after which the write is applied and
// visible but its durability unknown.
func errorStatus(err error) int {
	if errors.Is(err, twsim.ErrNonFinite) || errors.Is(err, seq.ErrEmpty) ||
		errors.Is(err, core.ErrSubseqBuildRefused) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w)
		return
	}
	if s.denyWrites(w) {
		return
	}
	var req batchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ids, err := s.backend.AddBatch(req.Sequences)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	wireIDs := make([]uint32, len(ids))
	for i, id := range ids {
		wireIDs[i] = uint32(id)
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"first_id": wireIDs[0],
		"count":    len(ids),
		"ids":      wireIDs,
	})
}

func (s *Server) handleSequenceByID(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/sequences/")
	if idStr == "batch" {
		s.handleBatch(w, r)
		return
	}
	id64, err := strconv.ParseUint(idStr, 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid id %q", idStr))
		return
	}
	id := twsim.ID(id64)
	switch r.Method {
	case http.MethodGet:
		values, err := s.backend.Get(id)
		if errors.Is(err, seqdb.ErrNotFound) || errors.Is(err, seqdb.ErrDeleted) {
			writeError(w, http.StatusNotFound, err)
			return
		}
		if err != nil { // a page failed its checksum, or the read itself failed
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"id": uint32(id), "values": values})
	case http.MethodDelete:
		if s.denyWrites(w) {
			return
		}
		removed, err := s.backend.Remove(id)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"removed": removed})
	default:
		methodNotAllowed(w)
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w)
		return
	}
	var req searchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Epsilon < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("negative tolerance %g", req.Epsilon))
		return
	}
	band := s.backend.DefaultBand()
	if req.Band != nil {
		if *req.Band < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("negative band half-width %d", *req.Band))
			return
		}
		band = *req.Band
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	res, err := s.backend.SearchCtx(r.Context(), req.Query, req.Epsilon, band)
	if err != nil {
		s.queryError(w, err)
		return
	}
	s.totals.accumulate(res.Stats)
	s.metrics.observeQuery(res.Stats, true)
	writeJSON(w, http.StatusOK, toSearchResponse(res))
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w)
		return
	}
	var req knnRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.K < 0 {
		writeError(w, http.StatusBadRequest, errors.New("k must be non-negative"))
		return
	}
	band := s.backend.DefaultBand()
	if req.Band != nil {
		if *req.Band < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("negative band half-width %d", *req.Band))
			return
		}
		band = *req.Band
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	res, err := s.backend.NearestKCtx(r.Context(), req.Query, req.K, band)
	if err != nil {
		s.queryError(w, err)
		return
	}
	s.totals.accumulate(res.Stats)
	s.metrics.observeQuery(res.Stats, false)
	writeJSON(w, http.StatusOK, toSearchResponse(res))
}

func (s *Server) handleSubseqBuild(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w)
		return
	}
	var req struct {
		WindowLens []int `json:"window_lens"`
		Step       int   `json:"step"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	idx, err := s.backend.BuildSubseqIndex(req.WindowLens, req.Step)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	s.smu.Lock()
	if s.subseq != nil {
		s.subseq.Close()
	}
	s.subseq = idx
	s.smu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]int{"windows": idx.NumWindows()})
}

func (s *Server) handleSubseqSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w)
		return
	}
	var req struct {
		Query   []float64 `json:"query"`
		Epsilon float64   `json:"epsilon"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	s.smu.RLock()
	idx := s.subseq
	if idx == nil {
		s.smu.RUnlock()
		writeError(w, http.StatusConflict, errors.New("no subsequence index built; POST /subseq/build first"))
		return
	}
	// Hold smu so a concurrent /subseq/build cannot close idx mid-search;
	// the index itself excludes the writers of the heap it reads.
	res, err := idx.Search(req.Query, req.Epsilon)
	s.smu.RUnlock()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	out := make([]SubMatchJSON, len(res.Matches))
	for i, m := range res.Matches {
		out[i] = SubMatchJSON{ID: uint32(m.ID), Offset: m.Offset, Len: m.Len, Dist: m.Dist}
	}
	writeJSON(w, http.StatusOK, map[string]any{"matches": out})
}

// Close releases server-held resources (the subsequence index, if built).
func (s *Server) Close() error {
	s.smu.Lock()
	defer s.smu.Unlock()
	if s.subseq != nil {
		err := s.subseq.Close()
		s.subseq = nil
		return err
	}
	return nil
}

// ---- helpers ----

func toSearchResponse(res *twsim.Result) SearchResponse {
	out := SearchResponse{
		RequestID: res.RequestID,
		CacheHit:  res.CacheHit,
		Matches:   make([]MatchJSON, len(res.Matches)),
		Stats: StatsJSON{
			Candidates:     res.Stats.Candidates,
			Results:        res.Stats.Results,
			DTWCalls:       res.Stats.DTWCalls,
			LBPAAPruned:    res.Stats.LBPAAPruned,
			LBKeoghPruned:  res.Stats.LBKeoghPruned,
			CorridorPruned: res.Stats.CorridorPruned,
			DTWAbandoned:   res.Stats.DTWAbandoned,
			WallMicros:     res.Stats.Wall.Microseconds(),
		},
	}
	for i, m := range res.Matches {
		out.Matches[i] = MatchJSON{ID: uint32(m.ID), Dist: m.Dist}
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func methodNotAllowed(w http.ResponseWriter) {
	writeError(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
}
