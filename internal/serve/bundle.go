// Package serve is the online prediction service: it turns the trained
// Env2Vec model — reachable only through batch pipeline runs in the paper's
// workflow (Fig. 2, steps 3–5) — into a low-latency HTTP daemon. Concurrent
// per-timestep requests are micro-batched into single forward passes, run on
// a worker pool, and protected by a bounded queue that sheds load with 429
// instead of collapsing. Model snapshots hot-reload from the registry via an
// atomic pointer swap, so a retrain published by the training pipeline
// reaches serving traffic with zero downtime.
package serve

import (
	"encoding/json"
	"fmt"

	"env2vec/internal/core"
	"env2vec/internal/dataset"
	"env2vec/internal/envmeta"
	"env2vec/internal/infer"
	"env2vec/internal/nn"
	"env2vec/internal/quality"
)

// Precision selects the numeric path a bundle's forward stage runs on.
// Training, the tape, and snapshots are always float64; precision is purely
// a serving-time choice made when the bundle is constructed.
type Precision string

// Supported serving precisions.
const (
	// PrecisionFloat64 is the default: the fused float64 path, bit-identical
	// (≤1e-12 relative) to the training tape.
	PrecisionFloat64 Precision = "float64"
	// PrecisionFloat32 converts the weights once at bundle load and serves
	// through vectorized float32 kernels — about 2× faster at the paper's
	// serving shape, within 1e-4 relative of the tape (docs/performance.md).
	PrecisionFloat32 Precision = "float32"
)

// ParsePrecision validates a -precision flag value.
func ParsePrecision(s string) (Precision, error) {
	switch Precision(s) {
	case "", PrecisionFloat64:
		return PrecisionFloat64, nil
	case PrecisionFloat32:
		return PrecisionFloat32, nil
	}
	return "", fmt.Errorf("serve: unknown precision %q (want float64 or float32)", s)
}

// ArtifactsKey is the snapshot-metadata key under which serving artifacts
// are stored.
const ArtifactsKey = "serve.artifacts"

// artifacts is everything beyond the weights needed to reconstruct a
// serving-ready model from a registry snapshot: the architecture config, the
// frozen metadata vocabularies, the input/target scalers, and the
// training-time prediction-error baseline the online quality monitor
// compares live errors against.
type artifacts struct {
	Config   core.Config       `json:"config"`
	Vocab    [][]string        `json:"vocab"` // per-feature values in id order
	XMean    []float64         `json:"xmean"`
	XStd     []float64         `json:"xstd"`
	YMu      float64           `json:"ymu"`
	YSigma   float64           `json:"ysigma"`
	Baseline *quality.Baseline `json:"baseline,omitempty"`
}

// AttachArtifacts embeds the serving artifacts into a snapshot's metadata so
// the snapshot alone suffices to stand up a predictor. The training pipeline
// calls this before publishing to the registry. baseline may be nil (older
// training runs); the quality monitor then self-calibrates per environment.
func AttachArtifacts(snap *nn.Snapshot, cfg core.Config, schema *envmeta.Schema, std *dataset.Standardizer, ys dataset.YScaler, baseline *quality.Baseline) error {
	a := artifacts{Config: cfg, Vocab: make([][]string, envmeta.NumFeatures), YMu: ys.Mu, YSigma: ys.Sigma, Baseline: baseline}
	for k, v := range schema.Vocabs {
		a.Vocab[k] = v.Values()
	}
	if std != nil {
		a.XMean, a.XStd = std.Mean, std.Std
	}
	data, err := json.Marshal(a)
	if err != nil {
		return fmt.Errorf("serve: encode artifacts: %w", err)
	}
	if snap.Meta == nil {
		snap.Meta = make(map[string]string)
	}
	snap.Meta[ArtifactsKey] = string(data)
	return nil
}

// Bundle is one immutable, serving-ready model version: the restored
// network plus the preprocessing artifacts it was trained with. Bundles are
// swapped atomically on reload and never mutated afterwards, which is what
// makes lock-free concurrent prediction sound.
type Bundle struct {
	Name    string
	Version int
	Model   *core.Model
	Schema  *envmeta.Schema
	Std     *dataset.Standardizer
	YScale  dataset.YScaler
	// Baseline is the training-time prediction-error distribution (nil when
	// the snapshot predates baselines); the quality monitor thresholds live
	// errors against it.
	Baseline *quality.Baseline

	// pred32 is the frozen float32 predictor when the bundle was configured
	// with PrecisionFloat32; nil means the float64 path. Set once by
	// SetPrecision before the bundle is swapped in, never after.
	pred32 *infer.Predictor[float32]
}

// SetPrecision fixes the numeric path the bundle serves on. For float32 it
// converts the model's weights into a frozen float32 predictor — the one
// mutation a Bundle ever sees, so it must happen before the bundle is
// published to the server's atomic pointer. Float64 (the zero value) is a
// no-op.
func (b *Bundle) SetPrecision(p Precision) error {
	switch p {
	case "", PrecisionFloat64:
		b.pred32 = nil
		return nil
	case PrecisionFloat32:
		b.pred32 = b.Model.NewPredictor32()
		return nil
	}
	return fmt.Errorf("serve: unknown precision %q", p)
}

// ActivePrecision reports the numeric path this bundle serves on.
func (b *Bundle) ActivePrecision() Precision {
	if b.pred32 != nil {
		return PrecisionFloat32
	}
	return PrecisionFloat64
}

// BundleFromSnapshot reconstructs a serving bundle from a snapshot that
// carries artifacts (see AttachArtifacts).
func BundleFromSnapshot(name string, version int, snap *nn.Snapshot) (*Bundle, error) {
	raw, ok := snap.Meta[ArtifactsKey]
	if !ok {
		return nil, fmt.Errorf("serve: snapshot of %q has no %s metadata; publish with serving artifacts attached", name, ArtifactsKey)
	}
	var a artifacts
	if err := json.Unmarshal([]byte(raw), &a); err != nil {
		return nil, fmt.Errorf("serve: decode artifacts: %w", err)
	}
	if len(a.Vocab) != envmeta.NumFeatures {
		return nil, fmt.Errorf("serve: artifacts carry %d vocabularies, want %d", len(a.Vocab), envmeta.NumFeatures)
	}
	schema := envmeta.NewSchema()
	for k, values := range a.Vocab {
		for _, v := range values {
			schema.Vocabs[k].Add(v)
		}
	}
	schema.Freeze()
	model := core.New(a.Config, schema)
	if err := model.Restore(snap); err != nil {
		return nil, fmt.Errorf("serve: restore weights: %w", err)
	}
	b := &Bundle{
		Name:     name,
		Version:  version,
		Model:    model,
		Schema:   schema,
		YScale:   dataset.YScaler{Mu: a.YMu, Sigma: a.YSigma},
		Baseline: a.Baseline,
	}
	if len(a.XMean) > 0 {
		b.Std = &dataset.Standardizer{Mean: a.XMean, Std: a.XStd}
	}
	return b, nil
}

// PredictInto runs the bundle's full forward stage — feature
// standardization, target scaling, the fused tape-free forward pass, and
// the map back to raw units — writing one prediction per batch row into
// out (which must be batch-sized). It allocates nothing: the batch is
// consumed, with X and Window rewritten in place, so callers must own the
// batch outright (the serve worker builds a private one per forward pass).
func (b *Bundle) PredictInto(out []float64, batch *nn.Batch) {
	if b.Std != nil {
		b.Std.Apply(batch.X)
	}
	b.YScale.ScaleInPlace(batch)
	if b.pred32 != nil {
		b.pred32.PredictInto(out, batch)
	} else {
		b.Model.PredictInto(out, batch)
	}
	b.YScale.UnscaleInPlace(out)
}
