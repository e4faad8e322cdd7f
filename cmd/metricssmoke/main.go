// Command metricssmoke is the CI smoke test for the observability surface:
// it boots a real twsimd process on an ephemeral port, drives a little
// traffic through /sequences, /search, and /knn, scrapes GET /metrics, and
// verifies that the output is valid Prometheus text exposition containing
// the key series — per-endpoint request counters and latency histograms,
// the DTW/cascade counters, the conservation law
// candidates = lb_paa + lb_keogh + corridor + dtw_calls, and
// the data pool's read counter advancing across a query. The database is an
// on-disk one in a temporary directory, seeded past one heap page a shard,
// so the queries' candidate fetches are direct reads of the data file and
// the counter is shown to count those.
//
// Usage: metricssmoke -bin ./bin/twsimd (the Makefile's metrics-smoke
// target builds the binary first). Exits non-zero with a diagnostic on any
// failure.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

func main() {
	bin := flag.String("bin", "./bin/twsimd", "path to the twsimd binary")
	flag.Parse()
	if err := run(*bin); err != nil {
		fmt.Fprintf(os.Stderr, "metricssmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("metricssmoke: OK")
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

func run(bin string) error {
	dir, err := os.MkdirTemp("", "metricssmoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cmd := exec.Command(bin, "-db", dir, "-create", "-shards", "2", "-addr", "127.0.0.1:0", "-slow-query-ms", "1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", bin, err)
	}
	defer func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		_ = cmd.Wait()
	}()

	// The daemon logs "listening on <addr>" once the socket is bound; with
	// -addr 127.0.0.1:0 that line is the only way to learn the port.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := listenRE.FindStringSubmatch(line); m != nil && !strings.Contains(line, "pprof") {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(15 * time.Second):
		return fmt.Errorf("twsimd did not report a listen address within 15s")
	}

	// Seed data and traffic: a batch insert, a range search, a k-NN.
	post := func(path, body string) error {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			return fmt.Errorf("POST %s: %w", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode >= 300 {
			return fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
		}
		return nil
	}
	if err := post("/sequences/batch", `{"sequences": [[1,2,3,4],[1,2,3,5],[10,11,12,13],[2,2,2,2],[5,6,7,8]]}`); err != nil {
		return err
	}
	// 36 bytes a record and 1020 a page: 80 more put the five above on pages
	// behind each shard's append point.
	filler := make([]string, 80)
	for i := range filler {
		filler[i] = fmt.Sprintf("[%d,%d,%d,%d]", 100+i, 101+i, 102+i, 103+i)
	}
	if err := post("/sequences/batch", `{"sequences": [`+strings.Join(filler, ",")+`]}`); err != nil {
		return err
	}
	before, err := scrape(base)
	if err != nil {
		return err
	}
	readsBefore, ok := before.Value("twsim_pool_reads_total", dataPool)
	if !ok {
		return fmt.Errorf("series twsim_pool_reads_total%v missing from /metrics", dataPool)
	}
	if err := post("/search", `{"query": [1,2,3,4], "epsilon": 1.5}`); err != nil {
		return err
	}
	if err := post("/knn", `{"query": [5,6,7,8], "k": 2}`); err != nil {
		return err
	}
	// A malformed query must 400 without polluting the query counters.
	if err := post("/search", `{"query": [], "epsilon": 1}`); err == nil {
		return fmt.Errorf("empty query unexpectedly accepted")
	}

	samples, err := scrape(base)
	if err != nil {
		return err
	}

	need := func(name string, labels map[string]string) (float64, error) {
		v, ok := samples.Value(name, labels)
		if !ok {
			return 0, fmt.Errorf("series %s%v missing from /metrics", name, labels)
		}
		return v, nil
	}
	searches, err := need("twsim_queries_total", nil)
	if err != nil {
		return err
	}
	if searches < 2 {
		return fmt.Errorf("twsim_queries_total = %g, want >= 2 (one /search + one /knn)", searches)
	}
	okSearch, err := need("twsim_http_requests_total", map[string]string{"endpoint": "search", "code": "2xx"})
	if err != nil {
		return err
	}
	badSearch, err := need("twsim_http_requests_total", map[string]string{"endpoint": "search", "code": "4xx"})
	if err != nil {
		return err
	}
	if okSearch < 1 || badSearch < 1 {
		return fmt.Errorf("search request counters: 2xx=%g 4xx=%g, want both >= 1", okSearch, badSearch)
	}
	histCount, err := need("twsim_http_request_duration_seconds_count", map[string]string{"endpoint": "search"})
	if err != nil {
		return err
	}
	if histCount < 2 {
		return fmt.Errorf("search latency histogram count = %g, want >= 2", histCount)
	}
	if _, err := need("twsim_http_request_duration_seconds_bucket", map[string]string{"endpoint": "knn", "le": "+Inf"}); err != nil {
		return err
	}
	// The conservation law across the exported counters.
	var law [4]float64
	for i, name := range []string{"twsim_query_candidates_total", "twsim_lb_paa_pruned_total", "twsim_lb_keogh_pruned_total", "twsim_corridor_pruned_total"} {
		if law[i], err = need(name, nil); err != nil {
			return err
		}
	}
	dtw, err := need("twsim_dtw_calls_total", nil)
	if err != nil {
		return err
	}
	if got := law[1] + law[2] + law[3] + dtw; got != law[0] {
		return fmt.Errorf("conservation law violated: candidates=%g but pruned+dtw=%g", law[0], got)
	}
	for _, name := range []string{"twsim_pool_hit_ratio", "twsim_sequences"} {
		if _, err := need(name, nil); err != nil {
			return err
		}
	}
	// Memory: the Go runtime's heap series and the envelope store's gauge,
	// which holds one 132-byte packed record for every live sequence.
	var mem [5]float64
	for i, name := range []string{"twsim_go_heap_inuse_bytes", "twsim_go_heap_sys_bytes", "twsim_go_next_gc_bytes", "twsim_envelope_store_bytes", "twsim_sequences"} {
		if mem[i], err = need(name, nil); err != nil {
			return err
		}
	}
	if inuse, sys, goal := mem[0], mem[1], mem[2]; inuse <= 0 || sys < inuse || goal <= 0 {
		return fmt.Errorf("Go heap series: in use %g, sys %g, next GC %g; want 0 < in use <= sys and a positive GC goal", inuse, sys, goal)
	}
	if envBytes, live := mem[3], mem[4]; live < 1 || envBytes < 132*live {
		return fmt.Errorf("twsim_envelope_store_bytes = %g for %g live sequences, want at least 132 a sequence", envBytes, live)
	}
	// The queries fetched their candidates from the heap, and the fetch
	// counts into the data pool's counters whichever way it read the pages.
	readsAfter, err := need("twsim_pool_reads_total", dataPool)
	if err != nil {
		return err
	}
	if readsAfter <= readsBefore {
		return fmt.Errorf("twsim_pool_reads_total%v = %g before the queries and %g after: candidate fetches are not counted", dataPool, readsBefore, readsAfter)
	}
	return nil
}

var dataPool = map[string]string{"pool": "data"}

// scrape fetches and parses GET /metrics.
func scrape(base string) (obs.Samples, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return nil, fmt.Errorf("GET /metrics: content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	samples, err := obs.ParseText(body)
	if err != nil {
		return nil, fmt.Errorf("exposition does not parse: %w", err)
	}
	return samples, nil
}
