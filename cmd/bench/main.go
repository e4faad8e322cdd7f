// Command bench is the repository's one benchmark: it builds and spawns a
// real twsimd per workload, loads a 100 000-sequence corpus over HTTP, runs
// a seeded op list 1 + 5 times, checks every answer, and prints every
// metric by name with its unit. See README.md in this directory for the
// workloads, the metric glossary and how the layers interact.
//
// Usage (from the repository root):
//
//	go run ./cmd/bench -seed 1 -out run.json          # the suite: four workloads + traced replay
//	go run ./cmd/bench -smoke                         # 2 000 sequences, 1+2 passes, seconds not minutes
//	go run ./cmd/bench -workload knn_banded -seed 7 -seconds 12 -trace 0
//	                                                  # one workload; last stdout line is the result object
//	go run ./cmd/bench -repeat 5 -out REPEATABILITY.md  # run-to-run spread per metric × workload
//	go run ./cmd/bench -compare A.json B.json         # per workload × metric verdicts against the bounds
//	go run ./cmd/bench -manifest                      # print BENCHMARK.json from the catalog
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/benchkit"
	"repro/internal/hostinfo"
)

// runSeconds is BENCHMARK.json's run_seconds: how long the measured passes
// of one workload last on the reference box.
const runSeconds = 12

// buildDir holds everything the benchmark writes: the twsimd binary, the
// per-run database directories, the span files. It is inside the checkout
// and named in .gitignore.
const buildDir = ".bench_build"

// suiteResult is what -out writes: every workload's metrics plus the host
// the numbers were taken on.
type suiteResult struct {
	Smoke     bool       `json:"smoke"`
	Seed      int64      `json:"seed"`
	Seconds   float64    `json:"seconds"`
	Host      hostFacts  `json:"host"`
	Workloads []*outcome `json:"workloads"`
}

type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	smoke    bool
	repeat   int
	compare  bool
	manifest bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and print the result object as the last line of standard output")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the corpus and the op list; the server never sees it")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long the measured passes should last on the reference box; sizes the op list")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics (adds the traced in-process replay)")
	flag.StringVar(&o.out, "out", "", "write the suite's result (or -repeat's table) to this file")
	flag.BoolVar(&o.smoke, "smoke", false, "2 000-sequence corpora and 1+2 passes: same names, same checks, numbers comparable with nothing")
	flag.IntVar(&o.repeat, "repeat", 0, "run the suite this many times with consecutive seeds and tabulate each metric's spread")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files given as arguments: A.json B.json")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json as the catalog defines it")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "bench: FAIL: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	switch {
	case o.manifest:
		return printManifest(os.Stdout)
	case o.compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if o.smoke {
		o.seconds = 1
	}

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	bin, err := buildServer(".", buildDir)
	if err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := runConfig{ctx: ctx, seed: o.seed, seconds: o.seconds, smoke: o.smoke, bin: bin, workDir: workDir, traceOut: buildDir, logf: logf}

	switch {
	case o.workload != "":
		w, ok := benchkit.WorkloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		cfg.trace = o.trace == 1
		res, err := runWorkload(w, cfg)
		if err != nil {
			return err
		}
		if err := printResultObject(res, cfg.trace); err != nil {
			return err
		}
		if res.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", w.Name, res.Failed, res.Attempted)
		}
		return nil
	case o.repeat > 0:
		return repeatSuite(cfg, o.repeat, o.out)
	}
	cfg.trace = true
	if o.out != "" {
		cfg.traceOut = filepath.Dir(o.out)
	}
	suite, err := runSuite(cfg)
	if err != nil {
		return err
	}
	printSuite(os.Stdout, suite)
	if o.out != "" {
		b, err := json.MarshalIndent(suite, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, w := range suite.Workloads {
		if w.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", w.Workload, w.Failed, w.Attempted)
		}
	}
	return nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench %s "+format+"\n", append([]any{time.Now().Format("15:04:05.000")}, args...)...)
}

// runSuite runs the workloads one at a time, each against a fresh twsimd
// and a fresh directory.
func runSuite(cfg runConfig) (*suiteResult, error) {
	suite := &suiteResult{
		Smoke: cfg.smoke, Seed: cfg.seed, Seconds: cfg.seconds,
		Host: hostFacts{NumCPU: hostinfo.NumCPU(), CPUModel: hostinfo.CPUModel(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)},
	}
	for _, w := range benchkit.Workloads {
		res, err := runWorkload(w, cfg)
		if err != nil {
			return nil, err
		}
		suite.Workloads = append(suite.Workloads, res)
	}
	return suite, nil
}

// printResultObject prints the one-line object the driver reads: the
// end-to-end metrics with tracing off, the per-layer metrics with it on.
func printResultObject(res *outcome, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := benchkit.EndToEnd, res.EndToEnd
	if traced {
		defs, vals = benchkit.PerLayer, res.PerLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not produced", res.Workload, d.Name)
		}
		metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}
