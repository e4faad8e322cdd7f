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
// sequence number and serves the durable WAL tail beyond any cursor, and
// replicas (see replica.go) follow. The sharded engine runs one WAL per
// shard with no global cut across them, so /repl/* answers 501 there —
// replicate per shard behind a router instead.
//
//	GET /repl/status              role, WAL cursor, record count (JSON)
//	GET /repl/snapshot            binary full-state snapshot (X-Twsim-Seq trailer)
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

// ReadOnly reports whether the server rejects mutations.
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

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

// handleReplSnapshot streams the full-state snapshot. WriteReplSnapshot
// excludes writers for the duration under the database's own read lock, so
// the snapshot is a consistent cut at the WAL sequence number in its header,
// repeated in the X-Twsim-Seq trailer (trailing CRC-32 guards the transfer).
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
	w.Header().Set("Trailer", "X-Twsim-Seq")
	w.WriteHeader(http.StatusOK)
	// Mid-stream failures can only abort the connection; the replica's
	// CRC check catches the truncation.
	if seqno, err := db.WriteReplSnapshot(w); err == nil {
		w.Header().Set("X-Twsim-Seq", strconv.FormatUint(seqno, 10))
	}
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
	maxBytes := maxWALTailBytes
	if mb := r.URL.Query().Get("max_bytes"); mb != "" {
		n, err := strconv.Atoi(mb)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid max_bytes %q", mb))
			return
		}
		if n < maxBytes {
			maxBytes = n
		}
	}
	data, last, err := db.WALTail(from, maxBytes)
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
