package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	twsim "repro"
)

// Replica follows a primary server: it bootstraps the full state from
// GET /repl/snapshot, then polls GET /repl/wal for the durable record
// tail and applies it through the replica database's normal write path.
// Because the stream replays the primary's mutations in log order over
// the same dense ID space, a replica at applied sequence S holds exactly
// the primary's state at S — Search and NearestK answer bit-identically
// to the primary at the same cut. When the primary checkpoints past the
// replica's cursor (410 Gone), the replica re-syncs from a fresh
// snapshot; existing IDs never change retroactively, so the re-sync is
// an incremental diff, not a rebuild.
//
// The replica's HTTP surface is the owning Server switched read-only:
// queries flow normally, mutations answer 403. The apply loop is the
// sole writer, beneath the HTTP layer: it reads and writes through the
// same *twsim.DB the queries use, under that database's own lock.
type Replica struct {
	db     *twsim.DB
	client *http.Client

	primaryURL string
	interval   time.Duration
	maxBytes   int

	applied    atomic.Uint64 // last WAL seq applied locally
	primarySeq atomic.Uint64 // last observed primary durable seq
	caughtUpAt atomic.Int64  // unix nanos of the last applied==primary observation
	resyncs    atomic.Int64
	polls      atomic.Int64
	appliedMut atomic.Int64
	lastErr    atomic.Value // string

	quit chan struct{}
	done chan struct{}
}

// ReplicaLag is the replication-lag snapshot /stats and /metrics export.
type ReplicaLag struct {
	AppliedSeq uint64 // last WAL sequence number applied locally
	PrimarySeq uint64 // primary's durable sequence number at last contact
	// GenerationDelta is PrimarySeq - AppliedSeq: how many durable
	// primary mutations the replica has not applied yet.
	GenerationDelta uint64
	// Seconds since the replica last observed itself fully caught up
	// (0 when caught up at last poll).
	Seconds float64
	Resyncs int64 // snapshot re-syncs forced by WAL compaction (410)
}

// ReplicaOptions configures NewReplica. Zero values get defaults.
type ReplicaOptions struct {
	// PollInterval is the WAL tail polling cadence (default 500ms).
	PollInterval time.Duration
	// MaxBatchBytes caps one tail fetch (default 4 MiB).
	MaxBatchBytes int
	// Client is the HTTP client used against the primary (default
	// http.DefaultClient with a 30s timeout).
	Client *http.Client
}

// NewReplica turns srv — a Server over a fresh or previously-synced
// single in-process database — into a read-only replica of the primary
// at primaryURL. It bootstraps synchronously (snapshot fetch + apply, or
// an incremental diff when the database already has records), then
// Start begins the tail-polling loop.
func NewReplica(srv *Server, primaryURL string, opts ReplicaOptions) (*Replica, error) {
	if srv.primary == nil {
		return nil, errors.New("server: replica requires a single-database backend")
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 500 * time.Millisecond
	}
	if opts.MaxBatchBytes <= 0 {
		opts.MaxBatchBytes = maxWALTailBytes
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 30 * time.Second}
	}
	rep := &Replica{
		db:         srv.primary,
		client:     opts.Client,
		primaryURL: primaryURL,
		interval:   opts.PollInterval,
		maxBytes:   opts.MaxBatchBytes,
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	if err := rep.syncSnapshot(); err != nil {
		return nil, fmt.Errorf("server: replica bootstrap: %w", err)
	}
	srv.SetReadOnly(true)
	srv.replica.Store(rep)
	return rep, nil
}

// Start launches the polling loop. Stop to halt it.
func (rep *Replica) Start() {
	go rep.run()
}

// Stop halts the polling loop and waits for it to exit.
func (rep *Replica) Stop() {
	close(rep.quit)
	<-rep.done
}

// PrimaryURL returns the primary this replica follows.
func (rep *Replica) PrimaryURL() string { return rep.primaryURL }

// Lag snapshots the replication lag.
func (rep *Replica) Lag() ReplicaLag {
	lag := ReplicaLag{
		AppliedSeq: rep.applied.Load(),
		PrimarySeq: rep.primarySeq.Load(),
		Resyncs:    rep.resyncs.Load(),
	}
	if lag.PrimarySeq > lag.AppliedSeq {
		lag.GenerationDelta = lag.PrimarySeq - lag.AppliedSeq
		if at := rep.caughtUpAt.Load(); at > 0 {
			lag.Seconds = time.Since(time.Unix(0, at)).Seconds()
		}
	}
	return lag
}

// LastError returns the most recent poll/apply error message ("" when
// the last cycle succeeded).
func (rep *Replica) LastError() string {
	if v := rep.lastErr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

func (rep *Replica) run() {
	defer close(rep.done)
	t := time.NewTicker(rep.interval)
	defer t.Stop()
	for {
		select {
		case <-rep.quit:
			return
		case <-t.C:
			if err := rep.poll(); err != nil {
				rep.lastErr.Store(err.Error())
			} else {
				rep.lastErr.Store("")
			}
		}
	}
}

// poll fetches and applies one WAL tail batch; on ErrWALCompacted it
// re-syncs from a snapshot instead.
func (rep *Replica) poll() error {
	rep.polls.Add(1)
	from := rep.applied.Load()
	url := fmt.Sprintf("%s/repl/wal?from=%d&max_bytes=%d", rep.primaryURL, from, rep.maxBytes)
	resp, err := rep.client.Get(url)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		// Fall through to apply.
	case http.StatusGone:
		// Checkpointed past our cursor: incremental re-sync from a fresh
		// snapshot.
		rep.resyncs.Add(1)
		return rep.syncSnapshot()
	default:
		return fmt.Errorf("primary answered %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	if durable := resp.Header.Get("X-Twsim-Durable"); durable != "" {
		if d, err := strconv.ParseUint(durable, 10, 64); err == nil {
			rep.primarySeq.Store(d)
		}
	}
	if len(body) > 0 {
		recs, err := twsim.ParseWALRecords(body, from+1)
		if err != nil {
			return err
		}
		applied, last, err := twsim.ApplyWALRecords(rep.db, recs)
		rep.appliedMut.Add(int64(applied))
		if err != nil {
			if errors.Is(err, twsim.ErrReplicaDiverged) {
				rep.resyncs.Add(1)
				return rep.syncSnapshot()
			}
			return err
		}
		rep.applied.Store(last)
	}
	if rep.applied.Load() >= rep.primarySeq.Load() {
		rep.caughtUpAt.Store(time.Now().UnixNano())
	}
	return nil
}

// syncSnapshot fetches the primary's snapshot and diffs the replica up
// to it (both the initial bootstrap and the 410 recovery path).
func (rep *Replica) syncSnapshot() error {
	resp, err := rep.client.Get(rep.primaryURL + "/repl/snapshot")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("primary snapshot answered %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	snap, err := twsim.DecodeReplSnapshot(body)
	if err != nil {
		return err
	}
	if _, _, err := twsim.SyncFromReplSnapshot(rep.db, snap); err != nil {
		return err
	}
	rep.applied.Store(snap.Seq)
	if snap.Seq >= rep.primarySeq.Load() {
		rep.primarySeq.Store(snap.Seq)
		rep.caughtUpAt.Store(time.Now().UnixNano())
	}
	return nil
}
