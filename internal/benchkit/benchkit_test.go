package benchkit

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"testing"
	"time"

	"repro/internal/seq"
	"repro/internal/synth"
)

func testCorpus(seed int64, n int) []seq.Sequence {
	return synth.RandomWalkSetVaryLen(rand.New(rand.NewSource(seed)), n, 16, 48)
}

func TestGenOpsIsDeterministicInTheSeed(t *testing.T) {
	corpus := testCorpus(1, 400)
	for _, w := range Workloads {
		a := GenOps(7, corpus, w.Mix, 200)
		b := GenOps(7, corpus, w.Mix, 200)
		c := GenOps(8, corpus, w.Mix, 200)
		if len(a.Ops) != 200 {
			t.Fatalf("%s: %d ops, want 200", w.Name, len(a.Ops))
		}
		same, differs := true, false
		for i := range a.Ops {
			if a.Ops[i].Kind != b.Ops[i].Kind || a.Ops[i].Target != b.Ops[i].Target || !bytes.Equal(a.Ops[i].Body, b.Ops[i].Body) {
				same = false
			}
			if !bytes.Equal(a.Ops[i].Body, c.Ops[i].Body) {
				differs = true
			}
		}
		if !same {
			t.Errorf("%s: the same seed gave two different op lists", w.Name)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", w.Name)
		}
	}
}

func TestGenOpsMixAndDeleteTargets(t *testing.T) {
	w, _ := WorkloadByName("mixed_rw_wal")
	l := GenOps(3, testCorpus(2, 400), w.Mix, 400)
	count := map[Kind]int{}
	deleted := map[int]bool{}
	for i, op := range l.Ops {
		count[op.Kind]++
		switch op.Kind {
		case KindDelete:
			if op.Target < 0 || op.Target >= i || l.Ops[op.Target].Kind != KindAdd {
				t.Fatalf("op %d deletes op %d, which is not an earlier single add", i, op.Target)
			}
			if op.Target/20 >= i/20 {
				t.Errorf("op %d deletes an add of its own block", i)
			}
			if deleted[op.Target] {
				t.Errorf("add %d is deleted twice", op.Target)
			}
			deleted[op.Target] = true
		case KindAddBatch:
			if len(op.Seqs) != BatchSize {
				t.Errorf("batch op %d carries %d sequences", i, len(op.Seqs))
			}
		case KindSearch:
			var body struct {
				Query   []float64 `json:"query"`
				Epsilon float64   `json:"epsilon"`
				Band    int       `json:"band"`
			}
			if err := json.Unmarshal(op.Body, &body); err != nil {
				t.Fatalf("op %d body: %v", i, err)
			}
			if body.Epsilon != w.Mix.Epsilon || !seq.Sequence(body.Query).Equal(l.Queries[op.Query]) {
				t.Errorf("op %d body does not encode its query", i)
			}
		}
	}
	// 20 blocks of 2 adds, 1 batch, 1 delete; the first block has no
	// earlier add to delete, so its delete became a query.
	if count[KindAdd] != 40 || count[KindAddBatch] != 20 || count[KindDelete] != 19 || count[KindSearch] != 321 {
		t.Errorf("op mix = %v", count)
	}
}

func TestZipfFrequencies(t *testing.T) {
	z := NewZipf(500, 1.2)
	total := 0.0
	for k := 0; k < 500; k++ {
		total += z.P(k)
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", total)
	}
	if r := z.P(0) / z.P(1); math.Abs(r-math.Pow(2, 1.2)) > 1e-9 {
		t.Errorf("P(0)/P(1) = %v, want 2^1.2", r)
	}
	rng := rand.New(rand.NewSource(1))
	const draws = 400_000
	seen := make([]int, 500)
	for i := 0; i < draws; i++ {
		seen[z.Draw(rng)]++
	}
	for _, k := range []int{0, 1, 2, 9, 99} {
		got, want := float64(seen[k])/draws, z.P(k)
		if math.Abs(got-want) > 4*math.Sqrt(want*(1-want)/draws) {
			t.Errorf("rank %d drawn with frequency %v, want %v", k, got, want)
		}
	}
}

func TestMedianPercentileAndTheTenBeyondRule(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
	// The median of passes is not moved by one slow pass.
	if got := Median([]float64{10.1, 9.9, 10.0, 17.0, 10.2}); got != 10.1 {
		t.Errorf("median of passes = %v", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100 unsorted
	}
	if got := Percentile(xs, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v", got)
	}
	for _, c := range []struct {
		n          int
		want, used float64
	}{{1000, 99, 99}, {999, 99, 95}, {200, 95, 95}, {199, 95, 90}, {100, 99, 90}, {19, 99, 50}, {5000, 95, 95}} {
		if got := SupportedPercentile(c.n, c.want); got != c.used {
			t.Errorf("%d samples support p%v when p%v is wanted, want p%v", c.n, got, c.want, c.used)
		}
	}
	if v, used := TailPercentile(xs, 99); used != 90 || v != 90 {
		t.Errorf("tail of 100 samples = p%v %v, want p90 90", used, v)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := Quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got, want := Spread(xs), 5.5/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1.0, 2.0, 4.0, 8.0, 16.0], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = Quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestProcParsers(t *testing.T) {
	stat := []byte("4242 (tw simd) x) S 1 4242 4242 0 -1 4194560 9021 0 3 0 1234 567 0 0 20 0 9 0 81234 1300000000 30000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	cpu, err := ParseProcStatCPU(stat)
	if err != nil || cpu != 18.01 {
		t.Errorf("cpu seconds = %v, %v; want 18.01", cpu, err)
	}
	if _, err := ParseProcStatCPU([]byte("garbage")); err == nil {
		t.Error("garbage parsed as a proc stat line")
	}
	status := []byte("Name:\ttwsimd\nVmPeak:\t  900000 kB\nVmHWM:\t  131072 kB\nVmRSS:\t  100000 kB\n")
	mb, err := ParseVmHWM(status)
	if err != nil || mb != 131072*1024/1e6 {
		t.Errorf("VmHWM = %v MB, %v", mb, err)
	}
	if _, err := ParseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("a status without VmHWM parsed")
	}
	// The parsers read this very process.
	if _, err := ProcCPUSeconds(os.Getpid()); err != nil {
		t.Error(err)
	}
	if mb, err := ProcPeakRSSMB(os.Getpid()); err != nil || mb <= 0 {
		t.Errorf("own peak RSS = %v, %v", mb, err)
	}
}

func TestDiffMetrics(t *testing.T) {
	before := []byte(`# HELP twsim_queries_total q
twsim_queries_total 10
twsim_http_requests_total{endpoint="search",code="5xx"} 1
twsim_http_requests_total{endpoint="knn",code="5xx"} 2
twsim_http_requests_total{endpoint="knn",code="2xx"} 50
twsim_wal_file_bytes 100
`)
	after := []byte(`twsim_queries_total 25
twsim_http_requests_total{endpoint="search",code="5xx"} 4
twsim_http_requests_total{endpoint="knn",code="5xx"} 2
twsim_http_requests_total{endpoint="knn",code="2xx"} 90
twsim_wal_file_bytes 70
`)
	d, err := DiffMetrics(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := d.Counter("twsim_queries_total", nil); err != nil || v != 15 {
		t.Errorf("queries delta = %v, %v", v, err)
	}
	if v, err := d.Counter("twsim_http_requests_total", map[string]string{"endpoint": "knn", "code": "2xx"}); err != nil || v != 40 {
		t.Errorf("knn 2xx delta = %v, %v", v, err)
	}
	if v := d.Sum("twsim_http_requests_total", map[string]string{"code": "5xx"}); v != 3 {
		t.Errorf("5xx summed over endpoints = %v", v)
	}
	if v, err := d.Gauge("twsim_wal_file_bytes", nil); err != nil || v != 70 {
		t.Errorf("gauge = %v, %v", v, err)
	}
	if _, err := d.Counter("twsim_renamed_total", nil); err == nil {
		t.Error("a series missing from the scrapes read as a number")
	}
	if _, err := DiffMetrics([]byte("not an exposition"), after); err == nil {
		t.Error("a malformed scrape parsed")
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []Span{
		{Name: "query", Start: 0, End: 100, Parent: -1},
		{Name: "index.walk", Start: 10, End: 30, Parent: 0},
		{Name: "dtw.dp", Start: 30, End: 90, Parent: 0},
		{Name: "query", Start: 100, End: 150, Parent: -1, Req: 1},
		{Name: "dtw.dp", Start: 105, End: 145, Parent: 3, Req: 1},
	}
	self := SelfTimes(spans)
	if self["query"] != 30 || self["index.walk"] != 20 || self["dtw.dp"] != 100 {
		t.Errorf("self times = %v", self)
	}
	off := NewRecorder(false)
	off.End(off.Begin("x", -1, 0), 1, 1)
	if len(off.Spans()) != 0 {
		t.Error("a disabled recorder recorded")
	}
	on := NewRecorder(true)
	root := on.Begin("query", -1, 7)
	on.End(on.Begin("dtw.dp", root, 7), 5, 2)
	on.End(root, 1, 2)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, on.Spans()); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != 2 {
		t.Errorf("%d span lines, want 2", lines)
	}
	if sp := on.Spans()[1]; sp.Parent != root || sp.Req != 7 || sp.In != 5 || sp.Out != 2 || sp.End < sp.Start {
		t.Errorf("child span = %+v", sp)
	}
}

// A server that takes 30 ms per request behind one connection, offered a
// request every 10 ms: an open loop must charge each request the time it
// queued behind the stall, and must not blame the generator for it.
func TestOpenLoopTimesFromTheDueInstant(t *testing.T) {
	const service = 30 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte(`{"matches":[]}`))
	}))
	defer srv.Close()
	ops := make([]Op, 6)
	for i := range ops {
		ops[i] = Op{Kind: KindSearch, Body: []byte(`{}`), Target: -1}
	}
	d := NewDriver(srv.URL, 1)
	defer d.Close()
	pass := d.Run(ops, 100)
	for i, s := range pass.Samples {
		if s.Err != nil || s.Status != http.StatusOK {
			t.Fatalf("op %d: status %d, %v", i, s.Status, s.Err)
		}
		// Op i is due at i×10 ms and cannot complete before (i+1)×30 ms.
		if min := time.Duration(i+1)*service - time.Duration(i)*10*time.Millisecond; s.Latency < min {
			t.Errorf("op %d: latency %v is not timed from its due instant (at least %v)", i, s.Latency, min)
		}
		if i > 0 && s.Lag != -1 {
			t.Errorf("op %d waited for the connection, yet the generator is charged %v of lag", i, s.Lag)
		}
	}
	// A closed loop on the same server sees only the service time.
	closed := d.Run(ops, 0)
	for i, s := range closed.Samples {
		if s.Latency > 3*service || s.Lag != -1 {
			t.Errorf("closed loop op %d: latency %v lag %v", i, s.Latency, s.Lag)
		}
	}
}

func TestOpenLoopReportsGeneratorLag(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	ops := make([]Op, 8)
	for i := range ops {
		ops[i] = Op{Kind: KindSearch, Body: []byte(`{}`), Target: -1}
	}
	d := NewDriver(srv.URL, 2)
	defer d.Close()
	pass := d.Run(ops, 200)
	slept := 0
	for i, s := range pass.Samples {
		if s.Lag >= 0 {
			slept++
			if s.Lag > 50*time.Millisecond {
				t.Errorf("op %d: generator lag %v", i, s.Lag)
			}
		}
	}
	if slept < len(ops)/2 {
		t.Errorf("only %d of %d ops report a timer wake-up lag on an idle server", slept, len(ops))
	}
	if pass.Wall < 35*time.Millisecond {
		t.Errorf("8 ops at 200/s finished in %v: the schedule was not kept", pass.Wall)
	}
}

func TestCheckerCountsACorruptedReply(t *testing.T) {
	data := testCorpus(5, 300)
	corpus := &Corpus{}
	for i, s := range data {
		corpus.Put(uint32(i+1), s)
	}
	for _, mix := range []Mix{
		{Query: KindSearch, Epsilon: 0.6},
		{Query: KindKNN, K: 5, Band: 4},
	} {
		l := GenOps(9, data, mix, 20)
		c := &Checker{List: l, Corpus: corpus}
		for qi, q := range l.Queries[:5] {
			honest := BruteForce(l, mix.Query, q, corpus)
			if mix.Query == KindSearch && len(honest) == 0 {
				t.Fatalf("query %d has no answer; the test needs a wider epsilon", qi)
			}
			if bad := c.Check(mix.Query, qi, honest); len(bad) != 0 {
				t.Fatalf("%s query %d: the scan's own answer fails the check: %v", mix.Query, qi, bad)
			}
			if bad := CompareToBruteForce(mix.Query, honest, honest); len(bad) != 0 {
				t.Fatalf("an answer differs from itself: %v", bad)
			}

			// One flipped bit in one distance.
			wrong := append([]Match(nil), honest...)
			wrong[0].Dist = math.Float64frombits(math.Float64bits(wrong[0].Dist) ^ 1)
			if bad := c.Check(mix.Query, qi, wrong); len(bad) == 0 {
				t.Errorf("%s query %d: a corrupted distance passed the check", mix.Query, qi)
			}
			// An id the client never stored.
			wrong = append([]Match(nil), honest...)
			wrong[0].ID = 1_000_000
			if bad := c.Check(mix.Query, qi, wrong); len(bad) == 0 {
				t.Errorf("%s query %d: an unknown id passed the check", mix.Query, qi)
			}
			// A dismissed match: every distance left is right, only the
			// scan can tell.
			if bad := CompareToBruteForce(mix.Query, honest[1:], honest); len(bad) == 0 {
				t.Errorf("%s query %d: a false dismissal went unnoticed", mix.Query, qi)
			}
		}
	}
	// A deleted sequence leaves the scan but an old answer may still name it.
	corpus.Delete(1)
	if corpus.IsLive(1) || corpus.Get(1) == nil || corpus.Live() != len(data)-1 {
		t.Error("delete bookkeeping is off")
	}
}

func TestConservationGap(t *testing.T) {
	series := func(cands, kim, paa, keogh, yi, imp, corr, calls int) []byte {
		var b bytes.Buffer
		for name, v := range map[string]int{
			"twsim_query_candidates_total": cands, "twsim_lb_kim_pruned_total": kim, "twsim_lb_paa_pruned_total": paa,
			"twsim_lb_keogh_pruned_total": keogh, "twsim_lb_yi_pruned_total": yi, "twsim_lb_improved_pruned_total": imp,
			"twsim_corridor_pruned_total": corr, "twsim_dtw_calls_total": calls,
		} {
			b.WriteString(name + " " + strconv.Itoa(v) + "\n")
		}
		return b.Bytes()
	}
	d, err := DiffMetrics(series(100, 1, 2, 3, 4, 5, 6, 79), series(300, 2, 4, 6, 8, 10, 12, 258))
	if err != nil {
		t.Fatal(err)
	}
	if gap, err := ConservationGap(d); err != nil || gap != 0 {
		t.Errorf("gap = %v, %v", gap, err)
	}
	d, _ = DiffMetrics(series(100, 1, 2, 3, 4, 5, 6, 79), series(300, 2, 4, 6, 8, 10, 12, 250))
	if gap, _ := ConservationGap(d); gap != 8 {
		t.Errorf("gap = %v, want 8", gap)
	}
}

// BENCHMARK.json is the contract later changes are judged by; it must name
// exactly what the benchmark prints and stay inside the driver's limits.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []Metric `json:"end_to_end"`
		PerLayer []Metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalog", len(m.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		checkName(w.Name)
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the catalog %q", i, m.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n\r") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(m.EndToEnd) != len(EndToEnd) || len(m.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the catalog %d+%d", len(m.EndToEnd), len(m.PerLayer), len(EndToEnd), len(PerLayer))
	}
	setup := false
	for i, d := range EndToEnd {
		checkName(d.Name)
		if m.EndToEnd[i] != d {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the catalog %+v", i, m.EndToEnd[i], d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: bound, unit or direction outside the contract", d.Name)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, d := range PerLayer {
		checkName(d.Name)
		if m.PerLayer[i] != d {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the catalog %+v", i, m.PerLayer[i], d)
		}
		if d.Bound != 0 || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: a per-layer metric has a unit, a direction and no bound", d.Name)
		}
	}
	if len(EndToEnd) > 16 || len(PerLayer) > 128 || len(Workloads) < 2 || len(Workloads) > 8 || len(raw) > 64<<10 {
		t.Error("BENCHMARK.json is outside the driver's size limits")
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 || len(m.Paths) == 0 || len(m.Command) == 0 {
		t.Error("run_seconds, paths or command outside the contract")
	}
}
