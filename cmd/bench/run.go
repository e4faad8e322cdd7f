package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/benchkit"
	"repro/internal/seq"
	"repro/internal/synth"
)

const (
	fullCorpus    = 100_000 // sequences; never cut (see README)
	smokeCorpus   = 2_000
	ingestBatches = 100
	scanQueries   = 8 // queries per workload checked against a full scan
)

// runConfig is what one workload run needs besides the workload itself.
type runConfig struct {
	ctx      context.Context // cancelled on SIGINT/SIGTERM; kills the server
	seed     int64
	seconds  float64 // sizes the op list (see Workload.OpsPerPass)
	smoke    bool
	trace    bool
	bin      string // the twsimd binary
	workDir  string // scratch directory inside the checkout
	traceOut string // where the span file goes ("" = nowhere)
	logf     func(format string, args ...any)
}

// outcome is one workload's result.
type outcome struct {
	Workload   string             `json:"workload"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Violations []string           `json:"violations,omitempty"` // the first few, for the log
	EndToEnd   map[string]float64 `json:"end_to_end"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
}

func (o *outcome) attempt(n int) { o.Attempted += int64(n) }

func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Violations) < 20 {
		o.Violations = append(o.Violations, fmt.Sprintf(format, args...))
	}
}

// genCorpus makes the workload's corpus from the seed, client side.
func genCorpus(w benchkit.Workload, seed int64, n int) []seq.Sequence {
	rng := rand.New(rand.NewSource(seed))
	if w.EqualLength {
		return synth.RandomWalkSet(rng, n, 128) // walk_eq128
	}
	return synth.RandomWalkSetVaryLen(rng, n, 64, 192) // walk_mixed
}

// ingestOps splits the corpus into pre-encoded /sequences/batch requests.
func ingestOps(data []seq.Sequence, batches int) []benchkit.Op {
	ops := make([]benchkit.Op, 0, batches)
	per := (len(data) + batches - 1) / batches
	for lo := 0; lo < len(data); lo += per {
		hi := lo + per
		if hi > len(data) {
			hi = len(data)
		}
		ops = append(ops, benchkit.Op{Kind: benchkit.KindAddBatch, Seqs: data[lo:hi], Body: benchkit.BatchBody(data[lo:hi]), Query: -1, Target: -1})
	}
	return ops
}

// runWorkload spawns a fresh twsimd on a fresh directory, loads the corpus
// over HTTP, runs the op list 1 + 5 times, checks every answer and returns
// the metrics. With cfg.trace it then replays the op list stage by stage
// in-process for the per-layer ledger.
func runWorkload(w benchkit.Workload, cfg runConfig) (*outcome, error) {
	out := &outcome{Workload: w.Name, EndToEnd: map[string]float64{}}
	n, measured := fullCorpus, benchkit.MeasuredPasses
	if cfg.smoke {
		n, measured = smokeCorpus, 2
	}
	data := genCorpus(w, cfg.seed, n)
	list := benchkit.GenOps(cfg.seed+1, data, w.Mix, w.OpsPerPass(cfg.seconds))
	ingest := ingestOps(data, ingestBatches)
	cfg.logf("%s: corpus of %d sequences, %d ops per pass, %d+%d passes", w.Name, n, len(list.Ops), benchkit.WarmupPasses, measured)

	dir := filepath.Join(cfg.workDir, w.Name)
	dbDir := filepath.Join(dir, "db")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// ---- set-up: spawn, ingest, see the count on /stats ----
	srv, err := startServer(cfg.ctx, cfg.bin, append([]string{"-db", dbDir, "-create"}, w.Flags...)...)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	drv := benchkit.NewDriver(srv.baseURL, benchkit.DefaultClients())
	defer drv.Close()
	corpus := &benchkit.Corpus{}
	loaded := drv.Run(ingest, 0)
	out.attempt(len(ingest))
	for i, s := range loaded.Samples {
		if _, err := recordWrite(corpus, &ingest[i], s); err != nil {
			return nil, fmt.Errorf("%s: ingest batch %d: %w", w.Name, i, err)
		}
	}
	if err := waitForCount(drv, n); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	out.EndToEnd["setup_s"] = time.Since(srv.started).Seconds()
	cfg.logf("%s: set up in %.2fs", w.Name, out.EndToEnd["setup_s"])

	// ---- warm-up pass, then the measured passes between two scrapes ----
	passes := make([]benchkit.Pass, 0, benchkit.WarmupPasses+measured)
	for i := 0; i < benchkit.WarmupPasses; i++ {
		passes = append(passes, drv.Run(list.Ops, w.Rate))
	}
	before, err := scrape(drv)
	if err != nil {
		return nil, err
	}
	cpuBefore, err := benchkit.ProcCPUSeconds(srv.pid())
	if err != nil {
		return nil, err
	}
	for i := 0; i < measured; i++ {
		passes = append(passes, drv.Run(list.Ops, w.Rate))
	}
	cpuAfter, err := benchkit.ProcCPUSeconds(srv.pid())
	if err != nil {
		return nil, err
	}
	after, err := scrape(drv)
	if err != nil {
		return nil, err
	}
	rss, err := benchkit.ProcPeakRSSMB(srv.pid())
	if err != nil {
		return nil, err
	}
	delta, err := benchkit.DiffMetrics(before, after)
	if err != nil {
		return nil, err
	}

	cfg.logf("%s: passes done", w.Name)
	// ---- check every answer, reduce the passes to metrics ----
	ev := evaluate(out, list, passes, corpus)
	cfg.logf("%s: answers checked", w.Name)
	m := ev.measured(benchkit.WarmupPasses, list.Kind, w.Rate > 0)
	out.EndToEnd["throughput_ops_s"] = benchkit.Median(m.throughput)
	out.EndToEnd["query_p50_ms"] = benchkit.Median(m.queryP50)
	out.EndToEnd["cpu_s_per_kop"] = (cpuAfter - cpuBefore) / (float64(m.completed) / 1000)
	out.EndToEnd["rss_mb"] = rss
	gap, err := benchkit.ConservationGap(delta)
	if err != nil {
		return nil, err
	}
	out.attempt(1)
	if gap != 0 {
		out.fail("conservation law: candidates exceed the pruned and refined by %v", gap)
	}
	scanCheck(out, drv, list, corpus)
	cfg.logf("%s: scans done", w.Name)

	// ---- durability: kill -9, reopen, read every acknowledged add back ----
	reopenMS := 0.0
	if hasFlag(w.Flags, "-wal") {
		srv.kill()
		srv = nil
		srv, err = startServer(cfg.ctx, cfg.bin, append([]string{"-db", dbDir}, w.Flags...)...)
		if err != nil {
			return nil, fmt.Errorf("%s: reopening after kill -9: %w", w.Name, err)
		}
		drv.Close()
		drv = benchkit.NewDriver(srv.baseURL, benchkit.DefaultClients())
		defer drv.Close()
		if status, _, err := drv.Do(http.MethodGet, "/healthz", nil); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("%s: /healthz after reopen: status %d, %v", w.Name, status, err)
		}
		reopenMS = float64(time.Since(srv.started)) / float64(time.Millisecond)
		readBack(out, drv, corpus, ev.written)
	}

	// ---- clean shutdown, then what is left on disk ----
	if err := srv.stop(); err != nil {
		return nil, err
	}
	srv = nil
	disk, err := dirBytes(dbDir)
	if err != nil {
		return nil, err
	}
	out.EndToEnd["disk_bytes_per_user_byte"] = float64(disk) / float64(8*corpus.Elements())

	if cfg.trace {
		if out.PerLayer, err = mainLedger(w, m, delta); err != nil {
			return nil, err
		}
		out.PerLayer["seqdb.reopen_ms"] = reopenMS
		if err := tracedLedger(out.PerLayer, w, cfg, dbDir, list, corpus); err != nil {
			return nil, fmt.Errorf("%s: traced replay: %w", w.Name, err)
		}
		out.PerLayer["error_rate"] = float64(out.Failed) / float64(out.Attempted)
	}
	for _, v := range out.Violations {
		cfg.logf("%s: VIOLATION: %s", w.Name, v)
	}
	return out, nil
}

func hasFlag(flags []string, name string) bool {
	for _, f := range flags {
		if f == name {
			return true
		}
	}
	return false
}

func scrape(drv *benchkit.Driver) ([]byte, error) {
	status, body, err := drv.Do(http.MethodGet, "/metrics", nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d, %v", status, err)
	}
	return body, nil
}

// waitForCount polls /stats until it shows n sequences.
func waitForCount(drv *benchkit.Driver, n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, body, err := drv.Do(http.MethodGet, "/stats", nil)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("GET /stats: status %d, %v", status, err)
		}
		var st struct {
			Sequences int `json:"sequences"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("GET /stats: %w", err)
		}
		if st.Sequences == n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/stats shows %d sequences after ingest, want %d", st.Sequences, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// recordWrite folds one acknowledged add or batch add into the client's
// copy of the corpus and returns the ids the server assigned. An
// unacknowledged write is an error the caller counts.
func recordWrite(c *benchkit.Corpus, op *benchkit.Op, s benchkit.Sample) ([]uint32, error) {
	if s.Err != nil {
		return nil, s.Err
	}
	if s.Status != http.StatusCreated {
		return nil, fmt.Errorf("status %d: %s", s.Status, s.Body)
	}
	var ack struct {
		ID  uint32   `json:"id"`  // POST /sequences
		IDs []uint32 `json:"ids"` // POST /sequences/batch
	}
	if err := json.Unmarshal(s.Body, &ack); err != nil {
		return nil, err
	}
	if op.Kind == benchkit.KindAdd {
		ack.IDs = []uint32{ack.ID}
	}
	if len(ack.IDs) != len(op.Seqs) {
		return nil, fmt.Errorf("%d sequences acknowledged with %d ids", len(op.Seqs), len(ack.IDs))
	}
	for i, id := range ack.IDs {
		if c.Get(id) != nil {
			return nil, fmt.Errorf("the server reused id %d", id)
		}
		c.Put(id, op.Seqs[i])
	}
	return ack.IDs, nil
}

// evaluation is what checking the passes yields.
type evaluation struct {
	passes  []passStats
	written []uint32 // ids of every acknowledged generator add, deleted or not
}

// passStats are one pass's client-side observations, over correct ops.
type passStats struct {
	wall     float64 // s
	ok       int     // ops completed with a verified answer
	good     int     // ... within the latency limit of their due instant
	lat      map[benchkit.Kind][]float64
	overhead []float64 // query latency minus the server's own wall, ms
	lag      []float64 // generator lateness, ms
	bytes    int64     // response bytes of query ops
}

// evaluate registers every acknowledged write, then checks every answer of
// every pass against the client's copy of the corpus. A wrong or failed op
// counts in out.Failed and in no latency list.
func evaluate(out *outcome, list *benchkit.List, passes []benchkit.Pass, corpus *benchkit.Corpus) *evaluation {
	ev := &evaluation{}
	// Writes first, for all passes: an answer may name a sequence another
	// connection added moments earlier.
	okWrite := make([][]bool, len(passes))
	for p, pass := range passes {
		okWrite[p] = make([]bool, len(pass.Samples))
		added := make(map[int]uint32) // single add's op index -> its id, for this pass's deletes
		for i, s := range pass.Samples {
			op := &list.Ops[i]
			if op.Kind != benchkit.KindAdd && op.Kind != benchkit.KindAddBatch {
				continue
			}
			ids, err := recordWrite(corpus, op, s)
			if err != nil {
				out.fail("pass %d op %d (%s): %v", p, i, op.Kind, err)
				continue
			}
			okWrite[p][i] = true
			added[i] = ids[0]
			ev.written = append(ev.written, ids...)
		}
		for i, s := range pass.Samples {
			op := &list.Ops[i]
			if op.Kind != benchkit.KindDelete {
				continue
			}
			var ack struct {
				Removed bool `json:"removed"`
			}
			target, known := added[op.Target]
			switch {
			case s.Err != nil || s.Status != http.StatusOK:
				out.fail("pass %d op %d (delete): status %d, %v", p, i, s.Status, s.Err)
			case json.Unmarshal(s.Body, &ack) != nil || !ack.Removed || !known:
				out.fail("pass %d op %d (delete): reply %s", p, i, s.Body)
			default:
				corpus.Delete(target)
				okWrite[p][i] = true
			}
		}
	}
	verdicts := checkQueries(list, passes, corpus)
	for p, pass := range passes {
		ps := passStats{wall: pass.Wall.Seconds(), lat: map[benchkit.Kind][]float64{}}
		out.attempt(len(pass.Samples))
		for i, s := range pass.Samples {
			op := &list.Ops[i]
			ok := okWrite[p][i]
			if op.Kind.IsQuery() {
				v := verdicts[p][i]
				for _, b := range v.bad {
					out.fail("pass %d op %d (%s): %s", p, i, op.Kind, b)
				}
				ok = len(v.bad) == 0
				if ok {
					ps.overhead = append(ps.overhead, ms(s.Latency)-float64(v.wallMicros)/1000)
					ps.bytes += int64(len(s.Body))
				}
			}
			if !ok {
				continue
			}
			ps.ok++
			if ms(s.Latency) <= benchkit.LatencyLimitMS {
				ps.good++
			}
			ps.lat[op.Kind] = append(ps.lat[op.Kind], ms(s.Latency))
			if s.Lag >= 0 {
				ps.lag = append(ps.lag, ms(s.Lag))
			}
		}
		ev.passes = append(ev.passes, ps)
	}
	return ev
}

// verdict is what checking one query reply found.
type verdict struct {
	bad        []string
	wallMicros int64 // the server's own wall time for the query
}

// checkQueries checks every query reply of every pass. The work is split
// by query over one goroutine per CPU, each with its own Checker, so no
// distance is computed twice and none is shared between goroutines.
func checkQueries(list *benchkit.List, passes []benchkit.Pass, corpus *benchkit.Corpus) [][]verdict {
	verdicts := make([][]verdict, len(passes))
	for p, pass := range passes {
		verdicts[p] = make([]verdict, len(pass.Samples))
	}
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			checker := &benchkit.Checker{List: list, Corpus: corpus}
			for p, pass := range passes {
				for i, s := range pass.Samples {
					op := &list.Ops[i]
					if op.Kind.IsQuery() && op.Query%workers == w {
						verdicts[p][i] = checkQuery(checker, op, s)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return verdicts
}

func checkQuery(c *benchkit.Checker, op *benchkit.Op, s benchkit.Sample) verdict {
	if s.Err != nil {
		return verdict{bad: []string{s.Err.Error()}}
	}
	if s.Status != http.StatusOK {
		return verdict{bad: []string{fmt.Sprintf("status %d: %s", s.Status, s.Body)}}
	}
	reply, err := benchkit.ParseQueryReply(s.Body)
	if err != nil {
		return verdict{bad: []string{err.Error()}}
	}
	return verdict{bad: c.Check(op.Kind, op.Query, reply.Matches), wallMicros: reply.Stats.WallMicros}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// measuredStats are the per-pass values of the measured passes, one entry
// per pass, ready for the median of passes.
type measuredStats struct {
	throughput []float64
	queryP50   []float64
	writeP50   []float64
	completed  int // ops completed correctly over the measured passes
	pooled     map[benchkit.Kind][]float64
	overhead   []float64
	lag        []float64
	bytes      int64
	queries    int
	offered    []float64
}

func (ev *evaluation) measured(skip int, query benchkit.Kind, openLoop bool) measuredStats {
	m := measuredStats{pooled: map[benchkit.Kind][]float64{}}
	for _, ps := range ev.passes[skip:] {
		// The open loop's goodput counts only answers inside the latency
		// limit; a closed loop has no due instants, so every correct
		// completion counts.
		done := ps.ok
		if openLoop {
			done = ps.good
		}
		m.throughput = append(m.throughput, float64(done)/ps.wall)
		m.offered = append(m.offered, float64(ps.ok)/ps.wall)
		q := ps.lat[query]
		m.queryP50 = append(m.queryP50, benchkit.Median(q))
		m.queries += len(q)
		if adds := ps.lat[benchkit.KindAdd]; len(adds) > 0 {
			m.writeP50 = append(m.writeP50, benchkit.Median(adds))
		}
		m.completed += ps.ok
		for k, l := range ps.lat {
			m.pooled[k] = append(m.pooled[k], l...)
		}
		m.overhead = append(m.overhead, ps.overhead...)
		m.lag = append(m.lag, ps.lag...)
		m.bytes += ps.bytes
	}
	return m
}

// scanCheck proves no false dismissal on a sample: with the server idle it
// re-asks a few queries and compares each answer with a full
// early-abandoning scan of the client's copy of the corpus.
func scanCheck(out *outcome, drv *benchkit.Driver, list *benchkit.List, corpus *benchkit.Corpus) {
	kind := list.Kind
	for i := 0; i < scanQueries; i++ {
		qi := i * len(list.Queries) / scanQueries
		out.attempt(1)
		status, body, err := drv.Do(http.MethodPost, kind.Path(), list.Bodies[qi])
		if err != nil || status != http.StatusOK {
			out.fail("scan query %d: status %d, %v", qi, status, err)
			continue
		}
		reply, err := benchkit.ParseQueryReply(body)
		if err != nil {
			out.fail("scan query %d: %v", qi, err)
			continue
		}
		want := benchkit.BruteForce(list, kind, list.Queries[qi], corpus)
		for _, b := range benchkit.CompareToBruteForce(kind, reply.Matches, want) {
			out.fail("scan query %d: %s", qi, b)
		}
	}
}

// readBack fetches every sequence the generator was acknowledged for and a
// sample of the ingested corpus after the kill -9 and reopen: live ones
// must come back bit-identical, deleted ones must be gone.
func readBack(out *outcome, drv *benchkit.Driver, corpus *benchkit.Corpus, written []uint32) {
	ids := append([]uint32(nil), written...)
	for i := 0; i < 200; i++ {
		ids = append(ids, uint32(i*997)%uint32(corpus.Live()))
	}
	for _, id := range ids {
		out.attempt(1)
		status, body, err := drv.Do(http.MethodGet, "/sequences/"+strconv.FormatUint(uint64(id), 10), nil)
		if err != nil {
			out.fail("read-back of id %d: %v", id, err)
			continue
		}
		if !corpus.IsLive(id) {
			if corpus.Get(id) != nil && status != http.StatusNotFound {
				out.fail("read-back of deleted id %d: status %d", id, status)
			}
			continue
		}
		var got struct {
			Values []float64 `json:"values"`
		}
		if status != http.StatusOK || json.Unmarshal(body, &got) != nil {
			out.fail("acknowledged add %d is missing after kill -9: status %d", id, status)
			continue
		}
		want := corpus.Get(id)
		same := len(got.Values) == len(want)
		for i := 0; same && i < len(want); i++ {
			same = math.Float64bits(got.Values[i]) == math.Float64bits(want[i])
		}
		if !same {
			out.fail("acknowledged add %d reads back different after kill -9", id)
		}
	}
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
