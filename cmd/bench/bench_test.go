package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchkit"
)

// The smoke suite is the whole benchmark in miniature: a real twsimd per
// workload, the same checks, the same names. Every name BENCHMARK.json
// lists must come out of it, and nothing may fail at the seed commit.
func TestSmokeSuiteCarriesEveryName(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns twsimd")
	}
	dir := t.TempDir()
	bin, err := buildServer(filepath.Join("..", ".."), dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{ctx: context.Background(), seed: 1, seconds: 1, smoke: true, trace: true, bin: bin, workDir: dir, traceOut: dir, logf: t.Logf}
	suite, err := runSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !suite.Smoke || len(suite.Workloads) != len(benchkit.Workloads) {
		t.Fatalf("smoke = %v with %d workloads", suite.Smoke, len(suite.Workloads))
	}
	for i, res := range suite.Workloads {
		if res.Workload != benchkit.Workloads[i].Name {
			t.Errorf("workload %d is %q", i, res.Workload)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", res.Workload, res.Failed, res.Attempted, res.Violations)
		}
		for _, d := range benchkit.EndToEnd {
			if v, ok := res.EndToEnd[d.Name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", res.Workload, d.Name, v)
			}
		}
		for _, d := range benchkit.PerLayer {
			if _, ok := res.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s is missing", res.Workload, d.Name)
			}
		}
		if len(res.PerLayer) != len(benchkit.PerLayer) || len(res.EndToEnd) != len(benchkit.EndToEnd) {
			t.Errorf("%s prints %d+%d metrics, the catalog lists %d+%d", res.Workload,
				len(res.EndToEnd), len(res.PerLayer), len(benchkit.EndToEnd), len(benchkit.PerLayer))
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+res.Workload+".jsonl")); err != nil {
			t.Errorf("%s: no span file: %v", res.Workload, err)
		}
	}
	var buf bytes.Buffer
	printSuite(&buf, suite)
	if !strings.Contains(buf.String(), `"smoke": true`) {
		t.Error(`the smoke report does not say "smoke": true`)
	}
}

func TestCompareGivesOneVerdictPerWorkloadAndMetric(t *testing.T) {
	// Five runs a side. B's knn_banded throughput is halved (worse),
	// its range_unbanded latency is 3% higher (inside the bound: ok), and
	// A's mixed_rw_wal throughput swings by far more than its bound
	// (unresolved, whatever B shows).
	side := func(adjust func(workload, metric string, run int, v float64) float64) []*suiteResult {
		var runs []*suiteResult
		for r := 0; r < 5; r++ {
			s := &suiteResult{Seed: int64(r)}
			for _, w := range benchkit.Workloads {
				res := &outcome{Workload: w.Name, Attempted: 10, EndToEnd: map[string]float64{}, PerLayer: map[string]float64{"dtw.dp_us_per_call": 50}}
				for _, d := range benchkit.EndToEnd {
					res.EndToEnd[d.Name] = adjust(w.Name, d.Name, r, 100+0.1*float64(r))
				}
				s.Workloads = append(s.Workloads, res)
			}
			runs = append(runs, s)
		}
		return runs
	}
	a := side(func(w, m string, run int, v float64) float64 {
		if w == "mixed_rw_wal" && m == "throughput_ops_s" {
			return v * (1 + 0.2*float64(run))
		}
		return v
	})
	b := side(func(w, m string, run int, v float64) float64 {
		switch {
		case w == "knn_banded" && m == "throughput_ops_s":
			return v * 0.5
		case w == "range_unbanded" && m == "query_p50_ms":
			return v * 1.03
		}
		return v
	})
	dir := t.TempDir()
	write := func(name string, runs []*suiteResult) string {
		raw, err := json.Marshal(runs)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var buf bytes.Buffer
	err := compareFiles(&buf, write("a.json", a), write("b.json", b))
	if err == nil {
		t.Error("a regression beyond the bound did not fail the comparison")
	}
	verdict := func(workload, metric string) string {
		section := buf.String()[strings.Index(buf.String(), "== "+workload):]
		for _, line := range strings.Split(section, "\n")[1:] {
			if f := strings.Fields(line); len(f) > 0 && f[0] == metric {
				return f[len(f)-1]
			}
		}
		return ""
	}
	for _, c := range []struct{ workload, metric, want string }{
		{"knn_banded", "throughput_ops_s", "worse"},
		{"range_unbanded", "query_p50_ms", "ok"},
		{"mixed_rw_wal", "throughput_ops_s", "unresolved"},
		{"zipf_cached_open", "setup_s", "ok"},
	} {
		if got := verdict(c.workload, c.metric); got != c.want {
			t.Errorf("%s %s: verdict %q, want %q\n%s", c.workload, c.metric, got, c.want, buf.String())
		}
	}
	if !strings.Contains(buf.String(), "dtw.dp_us_per_call") {
		t.Error("per-layer metrics are not listed beside the verdicts")
	}
}

// BENCHMARK.json is generated (go run ./cmd/bench -manifest), never edited.
func TestBenchmarkJSONIsTheManifest(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := printManifest(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, buf.Bytes()) {
		t.Error("BENCHMARK.json differs from `go run ./cmd/bench -manifest`; regenerate it")
	}
}
