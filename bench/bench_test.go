package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(samples, tc.q); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if samples[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// An open loop times every operation from its due time, so an operation
// sent late carries the wait in its latency, and reports how late it was.
func TestDueTimeAccounting(t *testing.T) {
	const gap = 5 * time.Millisecond
	start := time.Now()
	var lates, latencies []time.Duration
	paceOpen(4, start, gap, func(i int, due time.Time, late time.Duration) {
		if want := start.Add(time.Duration(i) * gap); !due.Equal(want) {
			t.Errorf("operation %d due %v, want %v", i, due.Sub(start), want.Sub(start))
		}
		if i == 1 {
			time.Sleep(2 * gap) // a stall: operations 2 and 3 are now overdue
		}
		lates, latencies = append(lates, late), append(latencies, time.Since(due))
	})
	if len(lates) != 4 {
		t.Fatalf("%d operations ran, want 4", len(lates))
	}
	if lates[2] < gap*9/10 {
		t.Errorf("operation 2 was sent %v late; the stall should have made it at least %v late", lates[2], gap*9/10)
	}
	if latencies[2] < lates[2] {
		t.Errorf("operation 2's latency %v does not include its %v wait since the due time", latencies[2], lates[2])
	}
	for i, l := range lates {
		if l < 0 {
			t.Errorf("operation %d was sent %v before it was due", i, -l)
		}
	}
}

func TestTallyCountsFailuresAndLimit(t *testing.T) {
	w := &window{ref: 10, actual: 12}
	ws := []*window{w}
	const limit = 10 * time.Millisecond
	var tl tally
	var at time.Time
	tl.answer(at, time.Millisecond, 0, limit, ws, []float64{10}, 1e-9)         // in time, exact
	tl.answer(at, 20*time.Millisecond, 0, limit, ws, []float64{10}, 1e-9)      // correct but late
	tl.answer(at, time.Millisecond, 0, limit, ws, []float64{10.1}, 1e-9)       // out of tolerance
	tl.answer(at, time.Millisecond, 0, limit, ws, []float64{math.NaN()}, 1e-9) // NaN never passes
	tl.answer(at, 500*time.Millisecond, 0, 0, ws, []float64{10 + 5e-10}, 1e-9) // closed loop: no limit
	tl.fail(at, time.Second, 0)
	if tl.attempted != 6 || tl.failed != 3 {
		t.Errorf("attempted %d failed %d, want 6 and 3", tl.attempted, tl.failed)
	}
	if tl.windows != 2 {
		t.Errorf("%d windows earned, want 2 (late and wrong answers earn none)", tl.windows)
	}
	if tl.answered != 3 {
		t.Errorf("%d windows answered correctly, want 3 (the late one counts in mae)", tl.answered)
	}
	if want := 4.0 + (2 - 5e-10); math.Abs(tl.absErr-want) > 1e-12 {
		t.Errorf("absolute error %v, want %v", tl.absErr, want)
	}
	if len(tl.ops) != 6 {
		t.Errorf("%d operations recorded, want one per attempt", len(tl.ops))
	}
}

// The timings of a run are those of a quiet part of it: a burst of noise
// spoils the parts it falls in and leaves the reported value alone.
func TestSlicesShrugOffABurst(t *testing.T) {
	closed := &tally{}
	at := time.Unix(1000, 0)
	for i := 0; i < 300; i++ {
		lat := 2 * time.Millisecond
		if i >= 100 && i < 130 {
			lat = 40 * time.Millisecond // the box stalls for a while
		}
		closed.done(at, lat, 0, 64, 64)
		at = at.Add(lat)
	}
	parts := tallies{closed}.slices(5)
	if len(parts) != 5 {
		t.Fatalf("%d parts, want 5", len(parts))
	}
	var p50, rate []float64
	for _, p := range parts {
		p50, rate = append(p50, p.p50MS), append(rate, p.windowsPerS)
	}
	if got := percentile(p50, quietShare); got != 2 {
		t.Errorf("quiet part's p50 = %v ms, want 2", got)
	}
	if got, want := percentile(rate, 1-quietShare), 64/0.002; math.Abs(got-want) > 1e-6 {
		t.Errorf("quiet part's rate = %v windows/s, want %v", got, want)
	}
	if parts[1].windowsPerS >= parts[0].windowsPerS/2 {
		t.Errorf("the stalled part should be far slower: %v against %v windows/s", parts[1].windowsPerS, parts[0].windowsPerS)
	}

	// An open loop's part lasts from its first due time to its last answer,
	// and windows that missed the limit earned nothing.
	a, b := &tally{}, &tally{}
	for i := 0; i < 100; i++ {
		due := time.Unix(1000, 0).Add(time.Duration(i) * 10 * time.Millisecond)
		a.done(due, time.Millisecond, 0, 1, 1)
		b.done(due, 10*time.Millisecond, 0, 1, 0)
	}
	open := tallies{a, b}.slices(1)
	if got := open[0].windowsPerS; math.Abs(got-100) > 1e-9 {
		t.Errorf("100 windows earned from 0 s to 1 s = %v windows/s, want 100", got)
	}
}

func TestSchedulesAreDeterministic(t *testing.T) {
	const exes = numChains
	a, b, c := timestepOrder(7, exes), timestepOrder(7, exes), timestepOrder(8, exes)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different timestep orders")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same timestep order")
	}
	if !reflect.DeepEqual(executionOrder(7, exes), executionOrder(7, exes)) || reflect.DeepEqual(executionOrder(7, exes), executionOrder(8, exes)) {
		t.Error("execution order is not a function of the seed alone")
	}
	// Every pass covers every window once, so mae weighs them equally
	// whatever the seed.
	seen := append([]int(nil), a...)
	sort.Ints(seen)
	for i, v := range seen {
		if v != i {
			t.Fatalf("timestep order is not a permutation of the pool: position %d holds %d", i, v)
		}
	}
	// Within a timestep round every execution appears once.
	round := map[int]bool{}
	for _, idx := range a[:exes] {
		round[idx/windowsPerExe] = true
	}
	if len(round) != exes {
		t.Errorf("first round touches %d executions, want %d", len(round), exes)
	}
}

func TestOperationCountsAreWholePasses(t *testing.T) {
	json := workloadByName("fleet_json_open")
	if got := json.ops(18); got != 3*json.pass {
		t.Errorf("300/s for 18 s = %d operations, want %d (3 passes)", got, 3*json.pass)
	}
	if got := json.ops(2); got != 600 {
		t.Errorf("a run shorter than one pass keeps its count: got %d, want 600", got)
	}
	if got := json.ops(0.001); got != 1 {
		t.Errorf("never fewer than one operation: got %d", got)
	}
	for _, w := range workloads {
		if n := w.ops(18); n%w.pass != 0 {
			t.Errorf("%s: %d operations are not whole passes of %d", w.name, n, w.pass)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{TraceID: "r", SpanID: "c", Name: "client", StartUS: 0, EndUS: 100},
		// Sent 5 µs after it was due: the wait is named, not the client's.
		{TraceID: "r", SpanID: "l", ParentID: "c", Name: "client.late", StartUS: 0, EndUS: 5},
		{TraceID: "r", SpanID: "p", ParentID: "c", Name: "proxy", StartUS: 10, EndUS: 90},
		// Two attempts that overlap: their union, not their sum, is covered.
		{TraceID: "r", SpanID: "s1", ParentID: "p", Name: "serve", StartUS: 20, EndUS: 50},
		{TraceID: "r", SpanID: "s2", ParentID: "p", Name: "serve", StartUS: 40, EndUS: 70},
		// A child that outlives its parent is clipped to it.
		{TraceID: "r", SpanID: "f", ParentID: "s2", Name: "forward", StartUS: 60, EndUS: 80},
	}
	self := selfTimes(spans)
	want := map[string][]float64{
		"client":      {15}, // 100 − [0,5] − [10,90]: what no span accounts for
		"client.late": {5},
		"proxy":       {30},     // 80 − [20,70]
		"serve":       {30, 20}, // s1 has no children; s2 loses [60,70]
		"forward":     {20},
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	total := 0.0
	for name, vs := range self {
		if name == "forward" {
			continue // 10 of its 20 µs lie outside the tree it hangs in
		}
		for _, v := range vs {
			total += v
		}
	}
	if total != 100 {
		t.Errorf("self times inside the root sum to %v, want its 100 µs", total)
	}
}

func TestSameToThreeFigures(t *testing.T) {
	if !sameTo3(29.2452, 29.2512) {
		t.Error("29.2452 and 29.2512 round to 29.2 and 29.3 but differ by 0.02 %: they agree")
	}
	if sameTo3(29.2, 29.3) || sameTo3(5.46, 5.47) {
		t.Error("a difference in the third figure must show")
	}
}

// benchmarkSpec is BENCHMARK.json as the driver reads it.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string }
	PerLayer  []struct{ Name, Unit string }
}

func readBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	return benchmarkSpec{raw.Workloads, raw.EndToEnd, raw.PerLayer}
}

// The smoke test runs every workload end to end with tiny operation
// counts, untraced and traced, and holds the results to BENCHMARK.json:
// the same workloads, every metric under its name and unit, nothing else.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := readBenchmarkSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.PerLayer) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the harness reports %d", len(spec.PerLayer), len(perLayerUnits))
	}
	for _, m := range spec.PerLayer {
		if perLayerUnits[m.Name] != m.Unit {
			t.Errorf("per-layer metric %s has unit %q in BENCHMARK.json and %q in the harness", m.Name, m.Unit, perLayerUnits[m.Name])
		}
	}

	// Runs write under the working directory; keep that out of the source.
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old) //nolint:errcheck // best effort on the way out
	logw = io.Discard
	defer func() { logw = os.Stderr }()

	tiny := map[string]int{"fleet_json_open": 48, "stream_wire_open": 256, "batch_wire_closed": 48, "retrain_cycle": publishEvery}
	check := func(t *testing.T, res *result, err error, want []struct{ Name, Unit string }) {
		t.Helper()
		if errors.Is(err, errLate) {
			// A run of a few dozen operations is invalid after one stall of
			// the box; that says nothing about the harness.
			t.Logf("tolerated in a tiny run: %v", err)
			res.Correct = true
		} else if err != nil {
			t.Fatalf("run: %v", err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("metric %s missing", m.Name)
			case got.Unit != m.Unit:
				t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("metric %s is %v", m.Name, got.Value)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(line, &keys); err != nil {
			t.Fatal(err)
		}
		if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
			t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", reflect.ValueOf(keys).MapKeys())
		}
	}
	m, err := buildModel(&stopwatch{mark: time.Now()}, &setupParts{})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := buildPool(m)
	if err != nil {
		t.Fatal(err)
	}
	start := func(t *testing.T, w *workload) (*env, setupParts) {
		t.Helper()
		var parts setupParts
		f, err := startFleet(m.tr, filepath.Join(dir, "fleet-"+w.name), w.precision, nil, &stopwatch{mark: time.Now()}, &parts)
		if err != nil {
			t.Fatal(err)
		}
		return &env{m: m, f: f, pool: pl, seed: 1}, parts
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			e, _ := start(t, w)
			defer e.f.close()
			res, err := untraced(e, options{workload: w, seed: 1, ops: tiny[w.name], warmup: 0.05}, 1.5)
			check(t, res, err, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", m.Name, res.Metrics[m.Name].Value)
				}
			}
		})
	}
	if testing.Short() {
		return // the traced run takes the probes' five seconds
	}
	t.Run("traced", func(t *testing.T) {
		w := workloads[0]
		e, parts := start(t, w)
		res, err := traced(e, options{workload: w, seed: 1, ops: tiny[w.name], warmup: 0.05}, parts, dir)
		check(t, res, err, spec.PerLayer)
		if _, err := os.Stat(filepath.Join("bench", "outputs", "trace_"+w.name+".jsonl")); err != nil {
			t.Errorf("traced run left no span file: %v", err)
		}
	})
}
