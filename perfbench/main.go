// Command perfbench is the campaign benchmark: it flies named workloads of
// deterministic closed-loop landing missions through the public campaign,
// coord, scenario and worldgen APIs, checks every pass against a reference
// digest, and prints one JSON result line.
//
//	perfbench -workload golden-exact -seed 0 -seconds 30 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics (runs_per_s,
// cpu_ms_per_run, peak_rss_mb, setup_s). With -trace 1 it carries the
// per-layer metrics of a traced run, which wraps each layer's public
// interface from outside and changes no program code. -workload all runs
// every workload in turn and prints their metrics as <workload>/<metric>.
// The command exits 1 when any pass fails or its digest differs from the
// reference, and 2 on bad arguments.
//
// Run it from the repository root through perfbench/run.py, which builds
// this module first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

func main() { os.Exit(perfbench()) }

// perfbench runs the command and returns its exit code.
func perfbench() int {
	workload := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", defaultSeed, "workload seed; the default reproduces the reference digests")
	seconds := flag.Float64("seconds", 30, "how long the timed passes of one workload may take")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	root := flag.String("root", ".", "repository checkout, for golden-exact's reference digest")
	workdir := flag.String("workdir", os.TempDir(), "directory for the loopback worker's journals")
	flag.Parse()
	if *workload == "" || flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := options{seed: *seed, seconds: *seconds, root: *root, workdir: *workdir, log: os.Stderr}
	res, err := run(ctx, *workload, *trace == 1, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	printSummary(res)
	fmt.Println(string(line))
	return exitCode(res)
}

// run measures one workload, or every workload for "all".
func run(ctx context.Context, name string, traced bool, o options) (result, error) {
	measure := runEndToEnd
	if traced {
		measure = runTraced
	}
	if name != "all" {
		w, err := findWorkload(name)
		if err != nil {
			return result{}, err
		}
		return measure(ctx, w, o)
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		r, err := measure(ctx, w, o)
		if err != nil {
			return result{}, err
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, m := range r.Metrics {
			all.Metrics[w.name+"/"+k] = m
		}
	}
	return all, nil
}

// exitCode is 0 only for a run whose every pass reproduced its reference.
func exitCode(r result) int {
	if r.Correct {
		return 0
	}
	return 1
}

// printSummary writes the metrics as a table on stderr, with the failed
// share that the result line carries as attempted and failed.
func printSummary(r result) {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	fmt.Fprintf(os.Stderr, "  %-40s %14.6g (%d of %d runs)\n", "failed_share",
		ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
}
