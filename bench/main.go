// Command bench is the end-to-end benchmark of asterixd: it drives a freshly
// built server over HTTP with generated statements, checks every answer
// against a generator-side oracle and prints each metric by name. See
// README.md for the workloads, the metrics and what moves them.
//
//	bash bench/run.sh --seed 1                          every workload, timed then traced
//	bash bench/run.sh --workload lookup --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --aa 5                            two sets of five timed runs, compared
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// runCap bounds one run of one workload, set-up and teardown included.
const runCap = 170 * time.Second

// Flush policy of every workload: the server's defaults, never tuned here.
const flushPolicy = "flush policy: server default (256 KiB per-tree memory budget, tiered merges, background scheduler, 8 MiB WAL checkpoint trigger)"

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadFlag = flag.String("workload", "", "workload to run (lookup, analytics, ingest, mixed); empty runs all, timed then traced")
		seedFlag     = flag.Int64("seed", 1, "seed of the generated data and statements")
		secondsFlag  = flag.Int("seconds", 12, "length of the measured window")
		traceFlag    = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		aaFlag       = flag.Int("aa", 0, "run the timed suite this many times, twice, and compare the two sets")
		asterixdFlag = flag.String("asterixd", "", "path of the asterixd binary built from this tree (run.sh sets it)")
		tmpFlag      = flag.String("tmp", ".bench_build", "directory for data directories and other scratch files")
		outFlag      = flag.String("out", "bench/out", "directory for the traced run's span files")
	)
	flag.Parse()
	if *asterixdFlag == "" || flag.NArg() > 0 || *secondsFlag < 1 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintln(os.Stderr, "usage: bash bench/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--aa K]")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := os.MkdirAll(*tmpFlag, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// Every data directory of this process lives under one directory that is
	// removed on every return path, signals included.
	tmp, err := os.MkdirTemp(*tmpFlag, "run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	cfg := runConfig{asterixd: *asterixdFlag, tmp: tmp, outDir: *outFlag, seed: *seedFlag,
		window: time.Duration(*secondsFlag) * time.Second, trace: *traceFlag == 1}

	if *aaFlag > 0 {
		return runAA(ctx, cfg, *aaFlag)
	}
	fmt.Println(flushPolicy)
	if *workloadFlag != "" {
		def, ok := findWorkload(*workloadFlag)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadFlag)
			return 2
		}
		res := runOne(ctx, cfg, def)
		res.print(os.Stdout)
		return res.finish(os.Stdout)
	}
	code := 0
	for _, trace := range []bool{false, true} {
		for _, def := range workloads {
			cfg.trace = trace
			res := runOne(ctx, cfg, def)
			res.print(os.Stdout)
			if c := res.finish(os.Stdout); c != 0 {
				code = c
			}
		}
	}
	return code
}

// runOne runs one workload once. A run that could not complete has an error
// in res.errs and no metrics.
func runOne(ctx context.Context, cfg runConfig, def workloadDef) *runResult {
	ctx, cancel := context.WithTimeout(ctx, runCap)
	defer cancel()
	res := &runResult{workload: def.name, trace: cfg.trace}
	d := newData(cfg.seed, fullScale)
	run := timedRun
	if cfg.trace {
		run = tracedRun
	}
	if err := run(ctx, cfg, def, d, res); err != nil {
		res.aborted = err
	}
	return res
}

// print lists the run's metrics in catalogue order, one per line.
func (r *runResult) print(w *os.File) {
	kind, defs := "timed", endToEndDefs
	if r.trace {
		kind, defs = "traced", perLayerDefs
	}
	fmt.Fprintf(w, "== %s, %s run: %d operations attempted, %d failed\n", r.workload, kind, r.attempted, r.failed)
	for _, d := range defs {
		if m, ok := r.metrics[d.name]; ok {
			fmt.Fprintf(w, "%-42s %14.4f %-6s n=%d\n", d.name, m.Value, m.Unit, m.samples)
		}
	}
	for _, err := range r.errs {
		fmt.Fprintln(os.Stderr, "bench: failed operation:", err)
	}
}

// finish prints the driver's result line and returns the exit code: non-zero
// when the run aborted or any operation failed.
func (r *runResult) finish(w *os.File) int {
	if r.aborted != nil {
		fmt.Fprintf(os.Stderr, "bench: %s run aborted: %v\n", r.workload, r.aborted)
		return 1
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if r.failed > 0 {
		return 1
	}
	return 0
}
