// Command bench is the repository benchmark: it boots the serving
// stack in one process (three engine-backed qavd services behind one
// qavrouter, joined by the router's in-process HandlerTransport),
// drives a seeded workload through Router.Handler() with closed-loop
// clients, checks every response, and reports end-to-end metrics, or,
// with -trace 1, per-layer metrics and a span file.
//
//	bash bench/run.sh -workload rewrite_hot -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload all -out a.json
//	bash bench/run.sh -compare a.json b.json
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// buildDir is the checkout-local directory for everything a run
// writes.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "rewrite_hot, rewrite_cold, answer_stored, mixed, or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds per run (warm-up is a quarter as long)")
	trace := fs.Int("trace", 0, "1: traced run, reporting per-layer metrics and writing a span file")
	spans := fs.String("spans", "", "span file of a traced run (default "+buildDir+"/spans/<workload>-<seed>.json)")
	out := fs.String("out", "", "write the full result record (a set, with -workload all) to this file")
	runs := fs.Int("runs", 1, "with -workload all: runs per workload, with seeds seed, seed+1, ...")
	compare := fs.Bool("compare", false, "compare the result files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareFiles("BENCHMARK.json", fs.Args(), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		tmpDir: filepath.Join(buildDir, "tmp")}
	if *workload == "all" {
		return runAll(cfg, *runs, *out, stdout, stderr)
	}
	r, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	report(stderr, r)
	if r.Trace {
		path := *spans
		if path == "" {
			path = filepath.Join(buildDir, "spans", fmt.Sprintf("%s-%d.json", r.Workload, r.Seed))
		}
		if err := writeSpans(path, r.Workload, r.Seed, r.traces); err != nil {
			fmt.Fprintf(stderr, "bench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans: %s (%d requests)\n", path, len(r.traces))
	}
	if *out != "" {
		if err := writeJSON(*out, r); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, _ := json.Marshal(resultLine(r)) // plain structs always marshal
	fmt.Fprintln(stdout, string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

// report prints a run's metrics and failures for people.
func report(w io.Writer, r *result) {
	fmt.Fprintf(w, "%s seed=%d clients=%d attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, r.Clients, r.Attempted, r.Failed, r.Correct)
	for _, name := range metricNames(r) {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAIL %s\n", e)
	}
}

// resultSet is the file -workload all writes and -compare reads.
type resultSet struct {
	Runs []*result `json:"runs"`
}

// runAll runs every workload in its own child process, so memory, GC
// state and set-up never leak from one workload into the next.
func runAll(cfg runConfig, runs int, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var set resultSet
	code := 0
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			seed := cfg.seed + int64(i)
			rec := filepath.Join(cfg.tmpDir, fmt.Sprintf("%s-%d-%d.json", w.name, seed, os.Getpid()))
			trace := "0"
			if cfg.trace {
				trace = "1"
			}
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace, "-out", rec}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = stderr, stderr
			var exit *exec.ExitError
			if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			var r result
			data, err := os.ReadFile(rec)
			if err == nil {
				err = json.Unmarshal(data, &r)
			}
			os.Remove(rec)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %d produced no result: %v\n", w.name, seed, err)
				code = 1
				continue
			}
			if !r.Correct {
				code = 1
			}
			set.Runs = append(set.Runs, &r)
		}
	}
	summarize(stdout, set.Runs)
	if out != "" {
		if err := writeJSON(out, set); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

// summarize prints one line per metric and workload: the median over
// the set's runs.
func summarize(w io.Writer, runs []*result) {
	by := make(map[string][]*result)
	var names []string
	for _, r := range runs {
		if by[r.Workload] == nil {
			names = append(names, r.Workload)
		}
		by[r.Workload] = append(by[r.Workload], r)
	}
	for _, wl := range names {
		rs := by[wl]
		var attempted, failed int64
		for _, r := range rs {
			attempted += r.Attempted
			failed += r.Failed
		}
		fmt.Fprintf(w, "%s: %d run(s), %d requests, %d failed\n", wl, len(rs), attempted, failed)
		for _, name := range metricNames(rs[0]) {
			var vs []float64
			for _, r := range rs {
				vs = append(vs, r.Metrics[name].Value)
			}
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, median(vs), rs[0].Metrics[name].Unit)
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
