// Command pairs compares one benchmark workload between a base commit and
// the working tree, in alternated pairs of runs.
//
//	go run ./cmd/pairs -workload mixed_rw_wal -n 10        # or: make pairs W=mixed_rw_wal N=10
//
// It exports the base commit (-base, default HEAD) with git archive, and the
// working tree — tracked and untracked files, less what .gitignore lists —
// as the tree a temporary index writes, each into its own temporary
// directory. Then it runs
//
//	go run ./cmd/bench -workload W -seed 7 -seconds 12 -trace 0
//
// in each, n times, alternating: odd pairs run the base first, even pairs
// the change first, so a drift of the machine over the session falls on
// both sides. Every run must finish with all its operations correct. For
// each end-to-end metric it prints both medians, both nearest-rank quartile ranges
// and how many of the n pairs the change won, in the metric's better
// direction; a tie is not a win. Each run's metrics go to standard error as
// it ends, so batches can be pooled. The directories are removed at the end.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/benchkit"
)

func main() {
	var (
		workload = flag.String("workload", "", "the cmd/bench workload to run (required)")
		n        = flag.Int("n", 10, "pairs of runs")
		base     = flag.String("base", "HEAD", "the commit the working tree is compared with")
		seed     = flag.Int64("seed", 7, "cmd/bench -seed")
	)
	flag.Parse()
	if *workload == "" || *n < 1 {
		fmt.Fprintln(os.Stderr, "usage: pairs -workload W [-n pairs] [-base commit]")
		os.Exit(2)
	}
	if err := run(*workload, *n, *base, *seed, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pairs:", err)
		os.Exit(1)
	}
}

func run(workload string, n int, base string, seed int64, out io.Writer) error {
	tmp, err := os.MkdirTemp("", "twsim-pairs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	baseDir, changeDir := filepath.Join(tmp, "base"), filepath.Join(tmp, "change")
	if err := export(base, baseDir); err != nil {
		return fmt.Errorf("export %s: %w", base, err)
	}
	tree, err := workingTree(filepath.Join(tmp, "index"))
	if err != nil {
		return fmt.Errorf("working tree: %w", err)
	}
	if err := export(tree, changeDir); err != nil {
		return fmt.Errorf("export the working tree: %w", err)
	}

	args := []string{"run", "./cmd/bench", "-workload", workload,
		"-seed", fmt.Sprint(seed), "-seconds", "12", "-trace", "0"}
	baseSide, changeSide := &side{name: "base", dir: baseDir}, &side{name: "change", dir: changeDir}
	for i := 1; i <= n; i++ {
		order := []*side{baseSide, changeSide}
		if i%2 == 0 {
			order[0], order[1] = changeSide, baseSide
		}
		for _, s := range order {
			m, err := bench(s.dir, args)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", i, s.name, err)
			}
			s.runs = append(s.runs, m)
			fmt.Fprintf(os.Stderr, "pairs: pair %d/%d, %s:", i, n, s.name)
			for _, def := range benchkit.EndToEnd {
				fmt.Fprintf(os.Stderr, " %s=%.4g", def.Name, m[def.Name])
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	fmt.Fprintf(out, "%s, seed %d, %d pairs: %s (base) vs the working tree (change)\n",
		workload, seed, n, base)
	fmt.Fprintf(out, "%-26s %12s %12s %8s %25s %25s %6s\n",
		"metric", "base p50", "change p50", "Δ", "base IQR", "change IQR", "wins")
	for _, def := range benchkit.EndToEnd {
		b, c := column(baseSide.runs, def.Name), column(changeSide.runs, def.Name)
		bm, cm := benchkit.Median(b), benchkit.Median(c)
		fmt.Fprintf(out, "%-26s %12.4g %12.4g %+7.1f%% %12.4g–%-12.4g %12.4g–%-12.4g %3d/%d\n",
			def.Name, bm, cm, 100*(cm/bm-1),
			benchkit.Percentile(b, 25), benchkit.Percentile(b, 75),
			benchkit.Percentile(c, 25), benchkit.Percentile(c, 75), wins(b, c, def.Better), n)
	}
	return nil
}

// side is one of the two trees and the metrics of its runs so far.
type side struct {
	name, dir string
	runs      []map[string]float64
}

// export writes the files of a commit or tree into dir.
func export(treeish, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", "--format=tar", treeish)
	extract := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	extract.Stdin = pipe
	var stderr bytes.Buffer
	archive.Stderr, extract.Stderr = &stderr, &stderr
	if err := extract.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		extract.Wait()
		return fmt.Errorf("%w: %s", err, stderr.String())
	}
	if err := extract.Wait(); err != nil {
		return fmt.Errorf("%w: %s", err, stderr.String())
	}
	return nil
}

// workingTree writes the working tree as a git tree object through a
// temporary index at indexPath, leaving the repository's own index as it
// is, and returns the tree's hash.
func workingTree(indexPath string) (string, error) {
	env := append(os.Environ(), "GIT_INDEX_FILE="+indexPath)
	for _, args := range [][]string{{"read-tree", "HEAD"}, {"add", "-A"}} {
		cmd := exec.Command("git", args...)
		cmd.Env = env
		if out, err := cmd.CombinedOutput(); err != nil {
			return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, out)
		}
	}
	cmd := exec.Command("git", "write-tree")
	cmd.Env = env
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git write-tree: %w", err)
	}
	return strings.TrimSpace(string(out)), nil
}

// bench runs cmd/bench in dir and returns the end-to-end metrics of its
// last line of standard output.
func bench(dir string, args []string) (map[string]float64, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		tail := stderr.Bytes()[max(stderr.Len()-2000, 0):]
		return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, tail)
	}
	return parseResult(out)
}

// parseResult reads the result object cmd/bench -workload prints as its
// last line: {"correct", "attempted", "failed", "metrics": {name: {"value"}}}.
func parseResult(out []byte) (map[string]float64, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Correct bool  `json:"correct"`
		Failed  int64 `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%d operations failed their checks", res.Failed)
	}
	if len(res.Metrics) == 0 {
		return nil, errors.New("result line holds no metrics")
	}
	m := make(map[string]float64, len(res.Metrics))
	for name, v := range res.Metrics {
		m[name] = v.Value
	}
	return m, nil
}

func column(runs []map[string]float64, name string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r[name]
	}
	return out
}

// wins counts the pairs whose change value beats the base value in the
// better direction ("lower" or "higher").
func wins(base, change []float64, better string) int {
	w := 0
	for i := range base {
		if better == "lower" && change[i] < base[i] || better == "higher" && change[i] > base[i] {
			w++
		}
	}
	return w
}
