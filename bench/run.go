package main

// One run: set the system up, warm it, measure a fixed number of
// operations of one workload, and turn what was seen into metrics.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

const (
	warmupSeconds = 2.0
	// setupRounds is how often an untraced run sets the whole system up,
	// each time from nothing and timed the same way; setup_s is the median,
	// so one slow start does not decide it.
	setupRounds = 3
	// lateLimitMS invalidates an open-loop run in which a tenth of the
	// operations were sent this late. Go timers on an idle Linux box fire up
	// to 1 ms late, so the floor of lateness is near 1 ms; the p99, which a
	// handful of scheduling stalls decides, is reported but does not gate.
	lateLimitMS = 3.0
	// alarmFloor is the share of scorings of a labelled fault execution in
	// retrain_cycle that must raise an alarm.
	alarmFloor = 0.5
)

// metric is one named value of a result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one run's inputs.
type options struct {
	workload *workload
	seed     int64
	seconds  float64
	traced   bool
	// ops overrides the operation count derived from seconds, and warmup
	// the warm-up's length (tests).
	ops    int
	warmup float64
}

// measured is one timed interval of a workload.
type measured struct {
	ts            tallies
	total         tally
	before, after procStats
	batchMean     float64 // requests per forward pass over the interval
	mae           float64
}

// answered is the windows answered correctly, at least 1 so that ratios
// stay finite on a run where every operation failed.
func (m *measured) answered() float64 { return float64(max(m.total.answered, 1)) }

// finisher is a session with an oracle of its own to consult at the end.
type finisher interface {
	// finish returns the workload's mae and whether its outputs held up.
	finish() (mae float64, err error)
}

// pass is one warm-up plus one measured interval on a running fleet. With
// an error it still returns what was measured, unless nothing was.
func pass(e *env, w *workload, ops int, warmup float64) (*measured, error) {
	s, err := w.dial(e)
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", w.name, err)
	}
	defer s.close()
	s.run(w.ops(warmup))
	e.rec.reset() // the warm-up is in no metric and no trace
	runtime.GC()  // every measured interval starts from a collected heap

	served, batches := e.f.forwardPasses()
	m := &measured{before: readProcStats()}
	m.ts = s.run(ops)
	m.after = readProcStats()
	if served2, batches2 := e.f.forwardPasses(); batches2 > batches {
		m.batchMean = float64(served2-served) / float64(batches2-batches)
	}
	m.total = m.ts.sum()
	m.mae = m.total.absErr / m.answered()
	if fin, ok := s.(finisher); ok {
		if m.mae, err = fin.finish(); err != nil {
			return m, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return m, nil
}

// errLate marks a run as invalid, not as wrong: the generator fell behind
// its schedule, so the latencies say more about it than about the system.
var errLate = errors.New("invalid run: generator ran late")

// verdict says why a measured interval does not count, if it does not.
func verdict(w *workload, m *measured, passErr error) error {
	late := percentile(m.ts.each(latenessOf), 0.9)
	switch {
	case passErr != nil:
		return passErr
	case m.total.failed > 0:
		return fmt.Errorf("%s: %d of %d operations failed", w.name, m.total.failed, m.total.attempted)
	case m.total.windows == 0:
		return fmt.Errorf("%s: no window was answered in time", w.name)
	case late > lateLimitMS:
		return fmt.Errorf("%w: %s sent p90 %.3f ms after the due time, limit %.1f ms", errLate, w.name, late, lateLimitMS)
	}
	return nil
}

// run executes one benchmark run and returns its result; the error, if
// any, says why the result is not correct or not valid.
func run(o options) (*result, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(cwd, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(scratch)

	st := stampBox()
	fmt.Fprintf(logw, "box: %s, nproc %d, GOMAXPROCS %d, %s, GOGC %s\n", st.CPU, st.NProc, st.GOMAXPROCS, st.GoVersion, st.GOGC)
	fmt.Fprintln(logw, "not measured: anything that needs a second processor to show (parallel speed-up, lock contention, worker-pool size)")
	fmt.Fprintf(logw, "run: workload %s (%s), seed %d, sized for %g s, traced %v\n",
		o.workload.name, o.workload.unit, o.seed, o.seconds, o.traced)

	// Set up; an untraced run does it several times and keeps the last.
	rounds := setupRounds
	if o.traced {
		rounds = 1
	}
	var m *model
	var f *fleet
	var parts setupParts
	var totals []float64
	for round := 0; round < rounds; round++ {
		if f != nil {
			f.close()
		}
		m, f, parts, err = setUp(filepath.Join(scratch, fmt.Sprint("fleet-", round)), o.workload.precision, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		totals = append(totals, parts.total().Seconds())
		fmt.Fprintf(logw, "set-up %d: %.3fs (corpus %.3f, train %.3f, publish+load %.3f, ready %.3f)\n", round+1,
			parts.total().Seconds(), parts.Corpus.Seconds(), parts.Train.Seconds(), parts.PublishLoad.Seconds(), parts.Ready.Seconds())
	}
	pl, err := buildPool(m)
	if err != nil {
		f.close()
		return nil, err
	}
	e := &env{m: m, f: f, pool: pl, seed: o.seed}
	if o.traced {
		return traced(e, o, parts, scratch)
	}
	defer f.close()
	return untraced(e, o, median(totals))
}

// untraced measures the workload on a running fleet and reports the
// end-to-end metrics.
func untraced(e *env, o options, setupS float64) (*result, error) {
	ops := o.ops
	if ops == 0 {
		ops = o.workload.ops(o.seconds)
	}
	m, passErr := pass(e, o.workload, ops, o.warmup)
	if m == nil {
		return nil, passErr
	}
	// Timings are those of a quiet part of the interval (see slices).
	parts := m.ts.slices(slicesFor(ops / len(m.ts)))
	var p50, p90, rate []float64
	for _, s := range parts {
		p50, p90, rate = append(p50, s.p50MS), append(p90, s.p90MS), append(rate, s.windowsPerS)
	}
	res := &result{
		Attempted: m.total.attempted, Failed: m.total.failed,
		Metrics: map[string]metric{
			"setup_s":           {setupS, "s"},
			"p50_ms":            {percentile(p50, quietShare), "ms"},
			"p90_ms":            {percentile(p90, quietShare), "ms"},
			"windows_per_s":     {percentile(rate, 1-quietShare), "1/s"},
			"allocs_per_window": {float64(m.after.mallocs-m.before.mallocs) / m.answered(), "count"},
			"mae":               {m.mae, "cpu_pts"},
		},
	}
	err := verdict(o.workload, m, passErr)
	res.Correct = err == nil
	late := m.ts.each(latenessOf)
	fmt.Fprintf(logw, "operations: %d attempted, %d succeeded, %d failed; %d parts; sent late p50 %.3f p90 %.3f p99 %.3f ms; %.2f requests per forward pass\n",
		res.Attempted, res.Attempted-res.Failed, res.Failed, len(parts), median(late), percentile(late, 0.9), percentile(late, 0.99), m.batchMean)
	for i, s := range parts {
		fmt.Fprintf(logw, "  part %2d: p50 %.3f p90 %.3f ms, %.0f windows/s\n", i+1, s.p50MS, s.p90MS, s.windowsPerS)
	}
	return res, err
}
