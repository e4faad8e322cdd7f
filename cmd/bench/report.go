package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/benchkit"
)

// printSuite prints every metric of every workload by name with its unit.
func printSuite(w io.Writer, suite *suiteResult) {
	fmt.Fprintf(w, "smoke: %v  seed: %d  host: %d x %s, %s, GOMAXPROCS=%d\n",
		suite.Smoke, suite.Seed, suite.Host.NumCPU, suite.Host.CPUModel, suite.Host.GoVersion, suite.Host.GOMAXPROCS)
	for _, res := range suite.Workloads {
		fmt.Fprintf(w, "\n== %s: %d attempted, %d failed ==\n", res.Workload, res.Attempted, res.Failed)
		for _, d := range benchkit.EndToEnd {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, res.EndToEnd[d.Name], d.Unit)
		}
		if res.PerLayer == nil {
			continue
		}
		fmt.Fprintln(w, "  -- per layer --")
		for _, d := range benchkit.PerLayer {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, res.PerLayer[d.Name], d.Unit)
		}
	}
	if suite.Smoke {
		fmt.Fprintln(w, "\n\"smoke\": true — these numbers compare with nothing")
	}
}

// printManifest renders BENCHMARK.json from the catalog, so the file and
// the names the benchmark prints cannot drift apart.
func printManifest(w io.Writer) error {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string          `json:"command"`
		Paths      []string          `json:"paths"`
		RunSeconds int               `json:"run_seconds"`
		Workloads  []workload        `json:"workloads"`
		EndToEnd   []benchkit.Metric `json:"end_to_end"`
		PerLayer   []layer           `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./cmd/bench"},
		Paths:      []string{"cmd/bench", "internal/benchkit"},
		RunSeconds: runSeconds,
		EndToEnd:   benchkit.EndToEnd,
	}
	for _, wl := range benchkit.Workloads {
		m.Workloads = append(m.Workloads, workload{wl.Name, wl.Why})
	}
	for _, d := range benchkit.PerLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// worse reports by what share of the base b is worse than a for a metric
// whose better direction is given (negative = better).
func worse(def benchkit.Metric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload × end-to-end metric, both values, the
// delta with its base, the bound and a verdict; per-layer metrics are
// listed beside without a verdict. A file written by -repeat holds several
// runs per workload: then the medians are compared and a metric whose
// run-to-run spread is wider than its bound is "unresolved", not "ok".
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadRuns(pathA)
	if err != nil {
		return err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return err
	}
	if a[0].Smoke || b[0].Smoke {
		return fmt.Errorf("smoke results compare with nothing")
	}
	regressed := false
	for _, wl := range benchkit.Workloads {
		fmt.Fprintf(w, "\n== %s ==  (A = %s, B = %s)\n", wl.Name, pathA, pathB)
		fmt.Fprintf(w, "  %-28s %12s %12s %22s %7s  %s\n", "metric", "A", "B", "delta (base A)", "bound", "verdict")
		for _, d := range benchkit.EndToEnd {
			va, vb := collect(a, wl.Name, d.Name, false), collect(b, wl.Name, d.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := benchkit.Median(va), benchkit.Median(vb)
			share := worse(d, ma, mb)
			verdict := "ok"
			switch {
			case spreadOf(va) > d.Bound || spreadOf(vb) > d.Bound:
				verdict = "unresolved"
			case share > d.Bound:
				verdict = "worse"
				regressed = true
			}
			fmt.Fprintf(w, "  %-28s %12.5g %12.5g %+12.5g (%+6.2f%%) %6.1f%%  %s\n",
				d.Name, ma, mb, mb-ma, 100*(mb-ma)/ma, 100*d.Bound, verdict)
		}
		fmt.Fprintf(w, "  -- per layer (no verdict) --\n")
		for _, d := range benchkit.PerLayer {
			va, vb := collect(a, wl.Name, d.Name, true), collect(b, wl.Name, d.Name, true)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-34s %12.5g %12.5g\n", d.Name, benchkit.Median(va), benchkit.Median(vb))
		}
	}
	if regressed {
		return fmt.Errorf("at least one metric is worse than its bound allows")
	}
	return nil
}

// spreadOf is the quartile spread of repeated runs (0 for a single run,
// which cannot show one).
func spreadOf(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return benchkit.Spread(xs)
}

// loadRuns reads a result file: one suite, or the array -repeat writes.
func loadRuns(path string) ([]*suiteResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var many []*suiteResult
	if err := json.Unmarshal(b, &many); err == nil && len(many) > 0 {
		return many, nil
	}
	var one suiteResult
	if err := json.Unmarshal(b, &one); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return []*suiteResult{&one}, nil
}

func collect(runs []*suiteResult, workload, metric string, perLayer bool) []float64 {
	var out []float64
	for _, r := range runs {
		for _, res := range r.Workloads {
			if res.Workload != workload {
				continue
			}
			vals := res.EndToEnd
			if perLayer {
				vals = res.PerLayer
			}
			if v, ok := vals[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// repeatSuite runs the suite n times on unchanged code, each time with the
// next seed as the driver does, and writes the spread table: per metric ×
// workload the min, quartiles and max, the quartile spread as a share of
// the median, and whether it stays within half the metric's bound. The raw
// runs go next to it as JSON so -compare can read them.
func repeatSuite(cfg runConfig, n int, out string) error {
	var runs []*suiteResult
	for i := 0; i < n; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i)
		logf("repeat %d of %d, seed %d", i+1, n, c.seed)
		suite, err := runSuite(c)
		if err != nil {
			return err
		}
		runs = append(runs, suite)
	}
	var sb strings.Builder
	h := runs[0].Host
	fmt.Fprintf(&sb, "%d runs of the suite on unchanged code, seeds %d..%d, `-seconds %g`, tracing off; host: %d x %s, %s, GOMAXPROCS=%d.\n\n",
		n, cfg.seed, cfg.seed+int64(n)-1, cfg.seconds, h.NumCPU, h.CPUModel, h.GoVersion, h.GOMAXPROCS)
	fmt.Fprintf(&sb, "| workload | metric | min | q1 | median | q3 | max | (q3-q1)/median | (max-min)/median | bound | within half the bound |\n")
	fmt.Fprintf(&sb, "|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, wl := range benchkit.Workloads {
		for _, d := range benchkit.EndToEnd {
			xs := collect(runs, wl.Name, d.Name, false)
			if len(xs) < 2 {
				continue
			}
			q1, q2, q3 := benchkit.Quartiles(xs)
			lo, hi := benchkit.Percentile(xs, 0), benchkit.Percentile(xs, 100)
			spread := benchkit.Spread(xs)
			verdict := "yes"
			if spread > d.Bound/2 {
				verdict = "NO"
			}
			fmt.Fprintf(&sb, "| %s | %s (%s) | %.5g | %.5g | %.5g | %.5g | %.5g | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				wl.Name, d.Name, d.Unit, lo, q1, q2, q3, hi, 100*spread, 100*benchkit.RangeOverMedian(xs), 100*d.Bound, verdict)
		}
	}
	fmt.Print(sb.String())
	if out == "" {
		return nil
	}
	if err := os.WriteFile(out, []byte(sb.String()), 0o644); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out+".runs.json", append(raw, '\n'), 0o644)
}
