// Command bench is the repository's benchmark: it assembles the serving
// fleet in-process, replays one of four workloads against it for a fixed
// number of operations, checks every answer against the training tape, and
// prints the end-to-end metrics (or, traced, the per-layer ones) as one
// JSON object on the last line of standard output. See README.md.
//
//	bash bench/run.sh --workload fleet_json_open --seed 1 --seconds 18 --trace 0
//	bash bench/run.sh -all          every workload, untraced and traced, as a table
//	bash bench/run.sh -selfcheck    the suite twice; fails when the two disagree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// logw receives everything but the result line.
var logw io.Writer = os.Stderr

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	// One processor for the whole in-process fleet and its clients. On a
	// shared 2-vCPU box waking the second vCPU costs 0.1–0.7 ms whenever the
	// host is busy, and a chain of goroutine hand-offs pays that at random:
	// ten runs of batch_wire_closed gave p50 1.18–1.47 ms (spread 20 %) on
	// two processors and 1.07–1.23 ms (7 %) on one. So the benchmark measures
	// the work per operation and the fixed waits; what needs two processors
	// to show (parallel speed-up, lock contention, the size of the worker
	// pool) it does not measure, and says so in every run's log.
	runtime.GOMAXPROCS(1)

	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: fleet_json_open, stream_wire_open, batch_wire_closed or retrain_cycle")
	seed := fs.Int64("seed", 1, "orders the replayed traffic; the same seed gives the same operations")
	seconds := fs.Float64("seconds", 18, "length of the measured interval the operation count is sized for")
	traced := fs.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
	all := fs.Bool("all", false, "run every workload untraced and traced, one process each, and print every metric")
	selfcheck := fs.Bool("selfcheck", false, "run the untraced suite twice and compare the two against the bounds of BENCHMARK.json")
	out := fs.String("out", "", "with -all or -selfcheck: also write the results to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace takes 0 or 1, not %d\n", *traced)
		return 2
	}
	switch {
	case *all:
		return exitCode(runAll(*seed, *seconds, *out))
	case *selfcheck:
		return exitCode(runSelfcheck(*seed, *seconds, *out))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		fs.Usage()
		return 2
	}
	res, err := run(options{workload: w, seed: *seed, seconds: *seconds, traced: *traced == 1, warmup: warmupSeconds})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	if res == nil {
		return 1
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "bench:", merr)
		return 1
	}
	fmt.Println(string(line))
	return exitCode(err)
}

func exitCode(err error) int {
	if err != nil {
		return 1
	}
	return 0
}
