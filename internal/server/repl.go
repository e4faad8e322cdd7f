package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	twsim "repro"
)

// Primary-side replication endpoints. A single-database, WAL-enabled
// server is a primary: it ships full-state snapshots stamped with a WAL
// sequence number and serves the durable WAL tail beyond any cursor, both
// as WAL frames, and replicas (see replica.go) follow. The sharded engine
// runs one WAL per shard with no global cut across them, so /repl/*
// answers 501 there — replicate per shard behind a router instead.
//
//	GET /repl/status              role, WAL cursor, record count (JSON)
//	GET /repl/snapshot            full-state snapshot: a header carrying the
//	                              cut's WAL sequence number, then WAL frames
//	GET /repl/wal?from=N          raw WAL records after cursor N
//	                              (X-Twsim-Last, X-Twsim-Durable; 410 Gone
//	                              when N predates the last checkpoint)

// maxWALTailBytes caps one /repl/wal response; the replica just polls
// again, so the cap only bounds memory per request.
const maxWALTailBytes = 4 << 20

// SetReadOnly switches every mutating endpoint (POST /sequences,
// /sequences/batch, DELETE /sequences/{id}) to 403 Forbidden. Replicas
// run read-only: their only writer is the replication apply loop, which
// operates on the backend directly, beneath the HTTP surface.
func (s *Server) SetReadOnly(ro bool) { s.readOnly.Store(ro) }

// denyWrites is the guard every mutating handler runs first; it reports
// whether the request was rejected (and answered) because the server is
// read-only.
func (s *Server) denyWrites(w http.ResponseWriter) bool {
	if !s.readOnly.Load() {
		return false
	}
	writeError(w, http.StatusForbidden, errors.New("server is read-only (replica mode); write to the primary"))
	return true
}

// replDB returns the single database serving /repl/*, or answers the
// request with why there is none.
func (s *Server) replDB(w http.ResponseWriter) (*twsim.DB, bool) {
	if s.primary == nil {
		writeError(w, http.StatusNotImplemented,
			errors.New("replication requires a single-database backend (shard behind a router to replicate a sharded deployment)"))
		return nil, false
	}
	if !s.primary.WALEnabled() {
		writeError(w, http.StatusPreconditionFailed,
			errors.New("replication requires the write-ahead log (twsim.Options.WAL / twsimd -wal)"))
		return nil, false
	}
	return s.primary, true
}

func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w)
		return
	}
	role := "standalone"
	out := map[string]any{}
	if rep := s.replica.Load(); rep != nil {
		role = "replica"
		lag := rep.Lag()
		out["replica"] = map[string]any{
			"primary":          rep.PrimaryURL(),
			"applied_seq":      lag.AppliedSeq,
			"primary_seq":      lag.PrimarySeq,
			"generation_delta": lag.GenerationDelta,
			"lag_seconds":      lag.Seconds,
			"resyncs":          lag.Resyncs,
		}
	} else if s.primary != nil && s.primary.WALEnabled() {
		role = "primary"
	}
	out["role"] = role
	if s.primary != nil && s.primary.WALEnabled() {
		st := s.primary.WALStats()
		out["wal"] = map[string]any{
			"seq":         st.Seq,
			"durable_seq": st.Durable,
			"base":        st.Base,
			"file_bytes":  st.FileBytes,
		}
		out["num_records"] = s.primary.NumRecords()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleReplSnapshot sends the full-state snapshot. WriteReplSnapshot
// encodes it under the database's read lock and writes it after releasing
// the lock, so a replica that reads slowly or stops stalls no writer and
// no query; the cut's WAL sequence number is in the body's header. An
// encode failure answers 500 before a byte is sent, and the body's one
// Write carries a Content-Length, so the replica's HTTP client reports a
// transfer cut short.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w)
		return
	}
	db, ok := s.replDB(w)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	sw := &snapshotWriter{ResponseWriter: w}
	if _, err := db.WriteReplSnapshot(sw); err != nil && !sw.wrote {
		writeError(w, http.StatusInternalServerError, err)
	}
}

// snapshotWriter stamps the Content-Length of WriteReplSnapshot's one
// Write and records that the response has begun.
type snapshotWriter struct {
	http.ResponseWriter
	wrote bool
}

func (sw *snapshotWriter) Write(p []byte) (int, error) {
	if !sw.wrote {
		sw.wrote = true
		sw.Header().Set("Content-Length", strconv.Itoa(len(p)))
	}
	return sw.ResponseWriter.Write(p)
}

func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w)
		return
	}
	db, ok := s.replDB(w)
	if !ok {
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid from cursor: %v", err))
		return
	}
	data, last, err := db.WALTail(from, maxWALTailBytes)
	if err != nil {
		if errors.Is(err, twsim.ErrWALCompacted) {
			// The tail was checkpointed away; the replica must re-sync
			// from a fresh snapshot.
			writeError(w, http.StatusGone, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	st := db.WALStats()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Twsim-Last", strconv.FormatUint(last, 10))
	w.Header().Set("X-Twsim-Durable", strconv.FormatUint(st.Durable, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}
