package main

// -all and -selfcheck: the whole suite, one fresh process per run.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the suite needs: which end-to-end
// metrics exist and how far two runs of the same code may differ.
type spec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec() (*spec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the root of the checkout: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// child runs this binary once on one workload and parses its last line.
// A run that reports an incorrect or invalid result still has a result;
// err then says so.
func child(w *workload, seed int64, seconds float64, traced bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, logw
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s: no result (%v)", w.name, errors.Join(runErr, err))
	}
	if runErr != nil || !res.Correct {
		return &res, fmt.Errorf("%s: run not correct (%d of %d operations failed)", w.name, res.Failed, res.Attempted)
	}
	return &res, nil
}

// printMetrics lists a result's metrics by name with their units.
func printMetrics(w *strings.Builder, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
}

// suiteReport is what -all -out writes: the baseline of this box.
type suiteReport struct {
	// Claim is null: the change that defines the benchmark claims no gain.
	Claim     *string                   `json:"claim"`
	Box       box                       `json:"box"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadReport `json:"workloads"`
}

type workloadReport struct {
	Operation  string            `json:"operation"`
	Operations int               `json:"operations"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer"`
}

func runAll(seed int64, seconds float64, out string) error {
	report := suiteReport{Box: stampBox(), Seed: seed, Seconds: seconds, Workloads: map[string]workloadReport{}}
	var text strings.Builder
	var failed error
	for _, w := range workloads {
		e2e, err := child(w, seed, seconds, false)
		failed = errors.Join(failed, err)
		layers, err := child(w, seed, seconds, true)
		failed = errors.Join(failed, err)
		if e2e == nil || layers == nil {
			continue
		}
		fmt.Fprintf(&text, "%s (%s): %d attempted, %d succeeded, %d failed\n", w.name, w.unit, e2e.Attempted, e2e.Attempted-e2e.Failed, e2e.Failed)
		printMetrics(&text, e2e)
		fmt.Fprintf(&text, " traced: %d attempted, %d succeeded, %d failed\n", layers.Attempted, layers.Attempted-layers.Failed, layers.Failed)
		printMetrics(&text, layers)
		report.Workloads[w.name] = workloadReport{
			Operation: w.unit, Operations: w.ops(seconds), Attempted: e2e.Attempted, Failed: e2e.Failed,
			EndToEnd: e2e.Metrics, PerLayer: layers.Metrics,
		}
	}
	fmt.Print(text.String())
	if out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return failed
}

// sameTo3 reports whether a and b agree to three significant figures:
// they differ by less than half a unit of the third figure of 9.99, so
// that two values a hair apart on either side of a rounding boundary
// (29.2452 and 29.2512) still agree.
func sameTo3(a, b float64) bool {
	return math.Abs(a-b) <= 5e-4*math.Max(math.Abs(a), math.Abs(b))
}

func runSelfcheck(seed int64, seconds float64, out string) error {
	sp, err := readSpec()
	if err != nil {
		return err
	}
	var runs [2]map[string]*result
	var failed error
	for i := range runs {
		runs[i] = map[string]*result{}
		for _, w := range workloads {
			res, err := child(w, seed, seconds, false)
			failed = errors.Join(failed, err)
			if res != nil {
				runs[i][w.name] = res
			}
		}
	}
	var text strings.Builder
	st := stampBox()
	fmt.Fprintf(&text, "selfcheck: the untraced suite twice (A then B), same binary, fresh processes, seed %d, %g s\n", seed, seconds)
	fmt.Fprintf(&text, "box: %s, nproc %d, GOMAXPROCS %d, %s, GOGC %s\n\n", st.CPU, st.NProc, st.GOMAXPROCS, st.GoVersion, st.GOGC)
	fmt.Fprintf(&text, "%-18s %-18s %14s %14s %8s %7s\n", "workload", "metric", "A", "B", "gap", "bound")
	for _, w := range workloads {
		a, b := runs[0][w.name], runs[1][w.name]
		if a == nil || b == nil {
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			gap := math.Abs(va-vb) / math.Min(math.Abs(va), math.Abs(vb))
			verdict := ""
			if !(gap <= m.Bound) {
				verdict = "  EXCEEDS BOUND"
				failed = errors.Join(failed, fmt.Errorf("%s on %s: gap %.2f%% exceeds bound %.0f%%", m.Name, w.name, 100*gap, 100*m.Bound))
			}
			if (m.Name == "allocs_per_window" || m.Name == "mae") && !sameTo3(va, vb) {
				verdict += "  differs in 3 significant figures"
				failed = errors.Join(failed, fmt.Errorf("%s on %s: %g and %g differ in 3 significant figures", m.Name, w.name, va, vb))
			}
			fmt.Fprintf(&text, "%-18s %-18s %14.6g %14.6g %7.2f%% %6.0f%%%s\n", w.name, m.Name, va, vb, 100*gap, 100*m.Bound, verdict)
		}
		fmt.Fprintf(&text, "%-18s operations: A %d attempted %d failed, B %d attempted %d failed\n", w.name, a.Attempted, a.Failed, b.Attempted, b.Failed)
	}
	if failed == nil {
		fmt.Fprintln(&text, "\nselfcheck passed: every gap is within its bound")
	} else {
		fmt.Fprintf(&text, "\nselfcheck FAILED:\n%v\n", failed)
	}
	fmt.Print(text.String())
	if out != "" {
		if err := os.WriteFile(out, []byte(text.String()), 0o644); err != nil {
			return err
		}
	}
	return failed
}
