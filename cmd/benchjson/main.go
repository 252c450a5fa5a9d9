// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON array on stdout, one object per benchmark:
//
//	[{"op":"ForwardInfer_B8W20","ns_per_op":52340.0,"bytes_per_op":96,"allocs_per_op":2}]
//
// docs/reproduce.sh uses it to commit machine-readable before/after numbers
// for the fused inference path (docs/outputs/BENCH_infer.json); any bench
// output works. Lines that are not benchmark results are ignored.
//
// With -compare old.json it additionally diffs the fresh numbers against a
// committed baseline and exits nonzero when any benchmark present in both
// regressed by more than -max-regress percent on ns/op, or grew its
// allocs/op at all. That makes the committed BENCH_*.json files an enforced
// perf gate, not just a record:
//
//	go test -bench ... | benchjson -compare docs/outputs/BENCH_infer.json -max-regress 10 > new.json
//
// Benchmarks only present on one side (added or removed ops) are reported
// but never fail the gate, so adding a benchmark does not require
// regenerating the baseline in the same commit.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Op is the benchmark name without the "Benchmark" prefix or the
	// "-GOMAXPROCS" suffix.
	Op         string  `json:"op"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are -1 when the run lacked -benchmem.
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Op: name, Iterations: iters, BytesPerOp: -1, AllocsPerOp: -1}
	// Remaining fields come in value/unit pairs: 52340 ns/op 96 B/op 2 allocs/op.
	for i := 2; i+1 < len(fields); i += 2 {
		v := fields[i]
		switch fields[i+1] {
		case "ns/op":
			if r.NsPerOp, err = strconv.ParseFloat(v, 64); err != nil {
				return Result{}, false
			}
		case "B/op":
			if r.BytesPerOp, err = strconv.ParseInt(v, 10, 64); err != nil {
				return Result{}, false
			}
		case "allocs/op":
			if r.AllocsPerOp, err = strconv.ParseInt(v, 10, 64); err != nil {
				return Result{}, false
			}
		}
	}
	if r.NsPerOp == 0 {
		return Result{}, false
	}
	return r, true
}

func parse(in io.Reader) ([]Result, error) {
	results := []Result{}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			results = append(results, r)
		}
	}
	return results, sc.Err()
}

// compare diffs fresh results against a baseline. It writes one line per
// shared benchmark to log and returns the ops that regressed: ns/op more
// than maxRegressPct above baseline, or allocs/op above baseline (when both
// runs measured allocs). Ops present on only one side are noted but never
// regressions.
func compare(baseline, fresh []Result, maxRegressPct float64, log io.Writer) []string {
	base := make(map[string]Result, len(baseline))
	for _, r := range baseline {
		base[r.Op] = r
	}
	var regressed []string
	seen := make(map[string]bool, len(fresh))
	for _, r := range fresh {
		seen[r.Op] = true
		old, ok := base[r.Op]
		if !ok {
			fmt.Fprintf(log, "benchjson: %s: new benchmark (no baseline), %.0f ns/op\n", r.Op, r.NsPerOp)
			continue
		}
		deltaPct := (r.NsPerOp - old.NsPerOp) / old.NsPerOp * 100
		status := "ok"
		switch {
		case deltaPct > maxRegressPct:
			status = fmt.Sprintf("REGRESSION (limit +%.0f%%)", maxRegressPct)
			regressed = append(regressed, r.Op)
		case old.AllocsPerOp >= 0 && r.AllocsPerOp > old.AllocsPerOp:
			status = fmt.Sprintf("REGRESSION (allocs %d -> %d)", old.AllocsPerOp, r.AllocsPerOp)
			regressed = append(regressed, r.Op)
		}
		fmt.Fprintf(log, "benchjson: %s: %.0f -> %.0f ns/op (%+.1f%%) %s\n",
			r.Op, old.NsPerOp, r.NsPerOp, deltaPct, status)
	}
	for _, r := range baseline {
		if !seen[r.Op] {
			fmt.Fprintf(log, "benchjson: %s: present in baseline only (benchmark removed?)\n", r.Op)
		}
	}
	return regressed
}

func loadBaseline(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []Result
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return results, nil
}

func main() {
	comparePath := flag.String("compare", "", "baseline BENCH_*.json to diff against; regressions fail the run")
	maxRegress := flag.Float64("max-regress", 10, "allowed ns/op regression vs -compare baseline, percent")
	flag.Parse()

	fresh, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(fresh); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *comparePath == "" {
		return
	}
	baseline, err := loadBaseline(*comparePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if regressed := compare(baseline, fresh, *maxRegress, os.Stderr); len(regressed) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed: %s\n",
			len(regressed), strings.Join(regressed, ", "))
		os.Exit(2)
	}
}
