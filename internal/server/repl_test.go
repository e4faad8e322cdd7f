package server

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	twsim "repro"
)

// startPrimary runs a WAL-enabled on-disk database behind a test server.
func startPrimary(t *testing.T) (*twsim.DB, *Server, *httptest.Server) {
	t.Helper()
	db, err := twsim.Create(t.TempDir(), twsim.Options{WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		db.Close()
	})
	return db, srv, ts
}

// startReplica brings up a read-only replica of the given primary,
// bootstrapped but with the polling loop under test control (call
// rep.poll() directly for determinism).
func startReplica(t *testing.T, primaryURL string) (*Replica, *Server, *httptest.Server) {
	t.Helper()
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	ts := httptest.NewServer(srv)
	rep, err := NewReplica(srv, primaryURL, ReplicaOptions{PollInterval: time.Hour})
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		db.Close()
	})
	return rep, srv, ts
}

func testSequences(n, length int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		s := make([]float64, length)
		v := rng.Float64() * 10
		for j := range s {
			v += rng.Float64() - 0.5
			s[j] = v
		}
		out[i] = s
	}
	return out
}

func TestReplicaBootstrapStreamsAndAnswersIdentically(t *testing.T) {
	pdb, _, pts := startPrimary(t)
	pc := NewClient(pts.URL, pts.Client())

	seqs := testSequences(40, 32, 1)
	for _, s := range seqs[:20] {
		if _, err := pc.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pc.Remove(3); err != nil {
		t.Fatal(err)
	}

	// Bootstrap picks up the pre-existing state, tombstone included.
	rep, _, rts := startReplica(t, pts.URL)
	rc := NewClient(rts.URL, rts.Client())
	if n := mustLen(t, rc); n != 19 {
		t.Fatalf("replica sequences after bootstrap = %d, want 19", n)
	}

	// New primary writes arrive via the WAL tail.
	for _, s := range seqs[20:] {
		if _, err := pc.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pc.Remove(25); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, pdb, rep)

	// Same generation -> bit-identical query answers.
	query := seqs[7]
	pres, err := pc.Search(query, 50)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := rc.Search(query, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(pres.Matches) == 0 {
		t.Fatal("primary search found nothing; test is vacuous")
	}
	if len(pres.Matches) != len(rres.Matches) {
		t.Fatalf("match counts differ: primary %d, replica %d", len(pres.Matches), len(rres.Matches))
	}
	for i := range pres.Matches {
		if pres.Matches[i].ID != rres.Matches[i].ID || pres.Matches[i].Dist != rres.Matches[i].Dist {
			t.Fatalf("match %d differs: primary %+v, replica %+v", i, pres.Matches[i], rres.Matches[i])
		}
	}
	pknn, err := pc.NearestK(query, 5)
	if err != nil {
		t.Fatal(err)
	}
	rknn, err := rc.NearestK(query, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pknn) != len(rknn) {
		t.Fatalf("knn counts differ: %d vs %d", len(pknn), len(rknn))
	}
	for i := range pknn {
		if pknn[i].ID != rknn[i].ID || math.Float64bits(pknn[i].Dist) != math.Float64bits(rknn[i].Dist) {
			t.Fatalf("knn %d differs: primary %+v, replica %+v", i, pknn[i], rknn[i])
		}
	}
}

func TestReplicaRejectsWritesWith403(t *testing.T) {
	_, _, pts := startPrimary(t)
	pc := NewClient(pts.URL, pts.Client())
	if _, err := pc.Add([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	_, _, rts := startReplica(t, pts.URL)

	for _, req := range []struct {
		method, path, body string
	}{
		{http.MethodPost, "/sequences", `{"values":[1,2,3]}`},
		{http.MethodPost, "/sequences/batch", `{"sequences":[[1,2,3]]}`},
		{http.MethodDelete, "/sequences/0", ""},
	} {
		hr, err := http.NewRequest(req.method, rts.URL+req.path, strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := rts.Client().Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("%s %s on replica = %d, want 403", req.method, req.path, resp.StatusCode)
		}
	}
	// Reads still flow.
	resp, err := rts.Client().Get(rts.URL + "/sequences/0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /sequences/0 on replica = %d", resp.StatusCode)
	}
}

func TestReplicaResyncsAfterPrimaryCheckpoint(t *testing.T) {
	pdb, _, pts := startPrimary(t)
	pc := NewClient(pts.URL, pts.Client())
	for _, s := range testSequences(10, 16, 2) {
		if _, err := pc.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	rep, _, rts := startReplica(t, pts.URL)
	rc := NewClient(rts.URL, rts.Client())

	// Advance the primary past the replica's cursor, then checkpoint so the
	// tail the replica wants is compacted away.
	for _, s := range testSequences(10, 16, 3) {
		if _, err := pc.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pc.Remove(4); err != nil {
		t.Fatal(err)
	}
	if err := pdb.Flush(); err != nil {
		t.Fatal(err)
	}
	resyncsBefore := rep.Lag().Resyncs
	waitCaughtUp(t, pdb, rep)
	if rep.Lag().Resyncs != resyncsBefore+1 {
		t.Fatalf("resyncs = %d, want %d (410 path not taken)", rep.Lag().Resyncs, resyncsBefore+1)
	}
	if n := mustLen(t, rc); n != 19 {
		t.Fatalf("replica sequences after resync = %d, want 19", n)
	}
	lag := rep.Lag()
	if lag.GenerationDelta != 0 {
		t.Fatalf("generation delta after catch-up = %d", lag.GenerationDelta)
	}
}

func TestReplicaLagExportedOnMetricsAndStats(t *testing.T) {
	pdb, _, pts := startPrimary(t)
	pc := NewClient(pts.URL, pts.Client())
	if _, err := pc.Add([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	rep, _, rts := startReplica(t, pts.URL)
	waitCaughtUp(t, pdb, rep)

	body := mustGet(t, rts, "/metrics")
	for _, series := range []string{"twsim_replica_lag_seconds", "twsim_replica_generation_delta", "twsim_replica_applied_seq"} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	stats := mustGet(t, rts, "/stats")
	if !strings.Contains(stats, `"replica"`) || !strings.Contains(stats, `"generation_delta"`) {
		t.Errorf("/stats missing replica section: %s", stats)
	}
	status := mustGet(t, rts, "/repl/status")
	if !strings.Contains(status, `"role":"replica"`) {
		t.Errorf("/repl/status = %s", status)
	}
	pstatus := mustGet(t, pts, "/repl/status")
	if !strings.Contains(pstatus, `"role":"primary"`) {
		t.Errorf("primary /repl/status = %s", pstatus)
	}
}

func TestReplEndpointsRequireWALAndSingleDB(t *testing.T) {
	// No WAL -> 412.
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := New(db)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/repl/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("/repl/snapshot without WAL = %d, want 412", resp.StatusCode)
	}

	// Sharded backend -> 501.
	sdb, err := twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	ssrv := NewBackend(sdb)
	sts := httptest.NewServer(ssrv)
	defer sts.Close()
	resp, err = sts.Client().Get(sts.URL + "/repl/wal?from=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("sharded /repl/wal = %d, want 501", resp.StatusCode)
	}
}

// waitCaughtUp polls the replica until it has applied everything the
// primary's WAL covers.
func waitCaughtUp(t *testing.T, pdb *twsim.DB, rep *Replica) {
	t.Helper()
	target := pdb.WALStats().Seq
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := rep.poll(); err != nil {
			t.Fatalf("replica poll: %v", err)
		}
		if rep.Lag().AppliedSeq >= target {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at seq %d, want %d", rep.Lag().AppliedSeq, target)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func mustLen(t *testing.T, c *Client) int {
	t.Helper()
	n, _, _, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func mustGet(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, b)
	}
	return string(b)
}

// TestSnapshotReaderThatStopsReadingStallsNoWriter: a client that asks for
// /repl/snapshot and stops reading must not hold the primary's lock. The
// body (≈ 17 MB here) overflows the loopback buffers, so a handler that
// wrote under the read lock would block in the write with the lock held; a
// pending Add would then wait behind it, and every new reader behind the
// Add.
func TestSnapshotReaderThatStopsReadingStallsNoWriter(t *testing.T) {
	pdb, _, pts := startPrimary(t)
	seqs := testSequences(16000, 128, 4)
	if _, err := pdb.AddAll(seqs); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", pts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /repl/snapshot HTTP/1.1\r\nHost: primary\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}

	added, counted := make(chan error, 1), make(chan int, 1)
	go func() {
		_, err := pdb.Add(seqs[0])
		added <- err
		counted <- pdb.Len()
	}()
	select {
	case err := <-added:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Add still blocked 2 s behind a snapshot reader that stopped reading")
	}
	select {
	case n := <-counted:
		if n != len(seqs)+1 {
			t.Fatalf("Len = %d, want %d", n, len(seqs)+1)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Len still blocked 2 s behind a snapshot reader that stopped reading")
	}
}

// snapshotProxy forwards to the primary at url, and hands /repl/snapshot
// bodies through mangle when it is set.
type snapshotProxy struct {
	url    string
	mangle atomic.Pointer[func([]byte) []byte]
}

func (p *snapshotProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	resp, err := http.Get(p.url + r.URL.RequestURI())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if mangle := p.mangle.Load(); mangle != nil && r.URL.Path == "/repl/snapshot" {
		body = (*mangle)(body)
	}
	for _, h := range []string{"X-Twsim-Last", "X-Twsim-Durable"} {
		w.Header().Set(h, resp.Header.Get(h))
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// startProxiedReplica bootstraps a replica of the primary at primaryURL
// through a snapshotProxy.
func startProxiedReplica(t *testing.T, primaryURL string) (*Replica, *snapshotProxy) {
	t.Helper()
	proxy := &snapshotProxy{url: primaryURL}
	ts := httptest.NewServer(proxy)
	t.Cleanup(ts.Close)
	rep, _, _ := startReplica(t, ts.URL)
	return rep, proxy
}

// frameStarts returns the offset of each frame in a snapshot body.
func frameStarts(raw []byte) []int {
	var starts []int
	for off := 24; off < len(raw); off += 4 + int(binary.LittleEndian.Uint32(raw[off:])) + 4 {
		starts = append(starts, off)
	}
	return starts
}

// TestReplicaRefusesACutOrCorruptSnapshot: a re-sync snapshot cut at a
// frame boundary or carrying a flipped byte applies nothing — the
// replica's record count, live count and applied cursor stay as they were
// — and the intact snapshot then applies.
func TestReplicaRefusesACutOrCorruptSnapshot(t *testing.T) {
	pdb, _, pts := startPrimary(t)
	seqs := testSequences(10, 16, 5)
	if _, err := pdb.AddAll(seqs[:6]); err != nil {
		t.Fatal(err)
	}
	rep, proxy := startProxiedReplica(t, pts.URL)
	if _, err := pdb.AddAll(seqs[6:]); err != nil {
		t.Fatal(err)
	}
	if _, err := pdb.Remove(1); err != nil {
		t.Fatal(err)
	}
	cursor := rep.Lag().AppliedSeq

	for name, mangle := range map[string]func([]byte) []byte{
		"cut before the last add frame": func(raw []byte) []byte {
			starts := frameStarts(raw)
			return raw[:starts[len(starts)-1]]
		},
		"flipped byte": func(raw []byte) []byte {
			raw[frameStarts(raw)[7]+20] ^= 0x40
			return raw
		},
	} {
		proxy.mangle.Store(&mangle)
		if err := rep.syncSnapshot(); err == nil {
			t.Fatalf("%s: the snapshot applied", name)
		}
		if n, live := rep.db.NumRecords(), rep.db.Len(); n != 6 || live != 6 {
			t.Fatalf("%s: replica holds %d slots, %d live; want 6, 6", name, n, live)
		}
		if got := rep.Lag().AppliedSeq; got != cursor {
			t.Fatalf("%s: applied cursor moved %d → %d", name, cursor, got)
		}
	}
	proxy.mangle.Store(nil)
	if err := rep.syncSnapshot(); err != nil {
		t.Fatal(err)
	}
	if n, live := rep.db.NumRecords(), rep.db.Len(); n != 10 || live != 9 {
		t.Fatalf("after the intact snapshot the replica holds %d slots, %d live; want 10, 9", n, live)
	}
	if got, want := rep.Lag().AppliedSeq, pdb.WALStats().Seq; got != want {
		t.Fatalf("applied cursor = %d, want the primary's %d", got, want)
	}
}

// TestReplicaHoldingMoreSlotsThanTheSnapshotDiverges: a replica with more
// record slots than the snapshot's header counts is ErrReplicaDiverged
// before anything applies — here the primary's remove of ID 0 stays
// unapplied.
func TestReplicaHoldingMoreSlotsThanTheSnapshotDiverges(t *testing.T) {
	pdb, _, pts := startPrimary(t)
	seqs := testSequences(5, 16, 6)
	if _, err := pdb.AddAll(seqs[:3]); err != nil {
		t.Fatal(err)
	}
	rep, _, _ := startReplica(t, pts.URL)
	if _, err := rep.db.AddAll(seqs[3:]); err != nil {
		t.Fatal(err)
	}
	if _, err := pdb.Remove(0); err != nil {
		t.Fatal(err)
	}
	cursor := rep.Lag().AppliedSeq
	if err := rep.syncSnapshot(); !errors.Is(err, twsim.ErrReplicaDiverged) {
		t.Fatalf("syncSnapshot = %v, want ErrReplicaDiverged", err)
	}
	if n, live := rep.db.NumRecords(), rep.db.Len(); n != 5 || live != 5 {
		t.Fatalf("replica holds %d slots, %d live; want 5, 5 (nothing applied)", n, live)
	}
	if got := rep.Lag().AppliedSeq; got != cursor {
		t.Fatalf("applied cursor moved %d → %d", cursor, got)
	}
}
