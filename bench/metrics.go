package main

// Sample accounting: percentiles, the per-run tally of operations and
// windows, and the process-level counters read around a measured interval.

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of samples by the
// nearest-rank rule on a sorted copy; it is 0 for no samples.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

func median(samples []float64) float64 { return percentile(samples, 0.5) }

func sum(samples []float64) float64 {
	total := 0.0
	for _, v := range samples {
		total += v
	}
	return total
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return sum(samples) / float64(len(samples))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// op is one operation as its generator saw it.
type op struct {
	due     time.Time // when it was due (open loops) or began (closed loops)
	latMS   float64   // from due to the answer
	lateMS  float64   // send time − due time (open loops)
	windows int       // windows it earned: answered correctly and in time
}

func (o op) end() time.Time { return o.due.Add(time.Duration(o.latMS * float64(time.Millisecond))) }

// tally is what one generator saw. An operation is attempted once; it
// fails on a transport error, a non-200 answer, a timeout or a prediction
// outside tolerance of the tape reference. Every window answered correctly
// counts in mae and allocs_per_window; it earns its place in windows_per_s
// only if, in an open loop, it was also answered within the latency limit.
type tally struct {
	ops               []op
	attempted, failed int
	answered          int     // windows answered correctly
	absErr            float64 // Σ|prediction − actual| over them
	windows           int     // Σ op.windows: answered correctly and in time
}

// answer records one operation that produced predictions for ws. The
// operation fails when any prediction is out of tolerance; a late answer
// (open loops, limit > 0) is no failure but earns no windows.
func (t *tally) answer(due time.Time, lat, late, limit time.Duration, ws []*window, preds []float64, tol float64) {
	sum := 0.0
	for i, w := range ws {
		if !(math.Abs(preds[i]-w.ref) <= tol) {
			t.fail(due, lat, late)
			return
		}
		sum += math.Abs(preds[i] - w.actual)
	}
	t.absErr += sum
	if limit > 0 && lat > limit {
		t.done(due, lat, late, len(ws), 0)
		return
	}
	t.done(due, lat, late, len(ws), len(ws))
}

// done records one operation that answered n windows correctly, of which
// earned were in time.
func (t *tally) done(due time.Time, lat, late time.Duration, n, earned int) {
	t.attempted++
	t.answered += n
	t.windows += earned
	t.ops = append(t.ops, op{due: due, latMS: ms(lat), lateMS: ms(late), windows: earned})
}

// fail records one operation that produced no usable answer.
func (t *tally) fail(due time.Time, lat, late time.Duration) {
	t.attempted++
	t.failed++
	t.ops = append(t.ops, op{due: due, latMS: ms(lat), lateMS: ms(late)})
}

// tallies are the generators of one measured interval.
type tallies []*tally

func (ts tallies) sum() tally {
	var total tally
	for _, t := range ts {
		total.attempted += t.attempted
		total.failed += t.failed
		total.answered += t.answered
		total.windows += t.windows
		total.absErr += t.absErr
	}
	return total
}

// each returns f of every operation of every generator.
func (ts tallies) each(f func(op) float64) []float64 {
	var out []float64
	for _, t := range ts {
		for _, o := range t.ops {
			out = append(out, f(o))
		}
	}
	return out
}

func latencyOf(o op) float64  { return o.latMS }
func latenessOf(o op) float64 { return o.lateMS }

// slice is one of the equal parts a measured interval is cut into.
type slice struct {
	p50MS, p90MS float64
	windowsPerS  float64
}

// slices cuts every generator's operations into k consecutive parts of
// equal count and describes part c of all generators together. A part
// lasts from when its first operation was due until its last was answered.
//
// The end-to-end timings are those of a quiet part (quietShare): noise on
// the box spoils the parts it falls in and leaves the quiet ones alone.
func (ts tallies) slices(k int) []slice {
	out := make([]slice, 0, k)
	for c := 0; c < k; c++ {
		var lat []float64
		var first, last time.Time
		windows := 0
		for _, t := range ts {
			part := t.ops[c*len(t.ops)/k : (c+1)*len(t.ops)/k]
			for _, o := range part {
				lat = append(lat, o.latMS)
				windows += o.windows
				if first.IsZero() || o.due.Before(first) {
					first = o.due
				}
				if e := o.end(); e.After(last) {
					last = e
				}
			}
		}
		if len(lat) == 0 {
			continue
		}
		out = append(out, slice{percentile(lat, 0.5), percentile(lat, 0.9), float64(windows) / last.Sub(first).Seconds()})
	}
	return out
}

// slicesFor picks how many parts n operations are cut into: about a
// second's worth each, at least 30 operations so that a part's 90th
// percentile has samples beyond it, and at least one part.
func slicesFor(n int) int { return max(min(n/30, 21), 1) }

// quietShare picks the part whose timing a run reports: with the parts
// ranked from quietest to noisiest, the one a tenth of the way up (the
// third of 21). Whatever else runs on a shared box only ever slows a part
// down: a neighbour on the sibling hyperthread, a host that clocks down.
// The quiet end of the ranking therefore repeats from run to run where the
// middle does not. Over ten runs on the reference box the p50 of the
// median part spread 9.6 % on retrain_cycle and 7.0 % on batch_wire_closed,
// that of the third-quietest part 6.8 % and 3.8 %. The very quietest part
// is the luckiest draw where nothing is contended: on stream_wire_open its
// p50 spread 5.2 %, the third-quietest's 2.7 %.
const quietShare = 0.1

// procStats are the process counters of the choosing-metrics "report
// memory and CPU as their own metrics" rule; all are per-layer, ungated.
type procStats struct {
	mallocs   uint64
	gcCycles  uint32
	gcPauseNS uint64
	cpu       time.Duration // user + system
}

func readProcStats() procStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procStats{
		mallocs:   m.Mallocs,
		gcCycles:  m.NumGC,
		gcPauseNS: m.PauseTotalNs,
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

func heapLiveMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads VmHWM from /proc/self/status; 0 when unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuModel extracts the first "model name" of /proc/cpuinfo text.
func cpuModel(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, name, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(name)
			}
		}
	}
	return ""
}
