// Package pipeline wires the Env2Vec testing workflow of Figure 2 together:
//
//	(1) testbed data collection — Exporter serves a test execution's metrics
//	    in the text exposition format so the TSDB scraper can pull them,
//	    keyed by an EM record id in the service-discovery file;
//	(2) model training — Trainer fits the single generic Env2Vec model on
//	    all non-problematic historical executions and publishes a snapshot
//	    to the model registry;
//	(3) prediction — Workflow reads execution data (directly or rebuilt
//	    from the TSDB), standardizes it, and runs the model;
//	(4) raising alarms — deviations beyond γ·σ (plus the 5% filter) become
//	    alarms pushed into the alarm store;
//	(5) updating the model — FetchModel pulls the latest snapshot before a
//	    prediction run.
package pipeline

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"env2vec/internal/anomaly"
	"env2vec/internal/core"
	"env2vec/internal/dataset"
	"env2vec/internal/envmeta"
	"env2vec/internal/modelserver"
	"env2vec/internal/nn"
	"env2vec/internal/obs"
	"env2vec/internal/quality"
	"env2vec/internal/serve"
	"env2vec/internal/stats"
	"env2vec/internal/tensor"
	"env2vec/internal/tsdb"
)

// Exporter publishes one test execution step-by-step at /metrics, the way a
// metric collector on a testbed would. Advance moves the cursor one
// timestep; the handler renders every contextual feature plus cpu_usage at
// the current position.
type Exporter struct {
	mu           sync.Mutex
	series       *dataset.Series
	featureNames []string
	pos          int
}

// NewExporter wraps a series for serving; the cursor starts at step 0.
func NewExporter(s *dataset.Series, featureNames []string) (*Exporter, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(featureNames) != s.CF.Cols {
		return nil, fmt.Errorf("pipeline: %d feature names for %d columns", len(featureNames), s.CF.Cols)
	}
	return &Exporter{series: s, featureNames: featureNames}, nil
}

// Advance moves to the next timestep, reporting false at the end of the
// execution.
func (e *Exporter) Advance() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pos+1 >= e.series.Len() {
		return false
	}
	e.pos++
	return true
}

// Pos returns the current cursor.
func (e *Exporter) Pos() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pos
}

// ServeHTTP implements http.Handler for the /metrics endpoint.
func (e *Exporter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/metrics" {
		http.NotFound(w, r)
		return
	}
	e.mu.Lock()
	pos := e.pos
	e.mu.Unlock()
	ts := int64(0)
	if len(e.series.Times) == e.series.Len() {
		ts = e.series.Times[pos]
	}
	series := make([]tsdb.Series, 0, len(e.featureNames)+1)
	for j, name := range e.featureNames {
		series = append(series, tsdb.Series{
			Labels:  tsdb.Labels{"__name__": name},
			Samples: []tsdb.Sample{{T: ts, V: e.series.CF.At(pos, j)}},
		})
	}
	series = append(series, tsdb.Series{
		Labels:  tsdb.Labels{"__name__": "cpu_usage"},
		Samples: []tsdb.Sample{{T: ts, V: e.series.RU[pos]}},
	})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = tsdb.WriteExposition(w, series)
}

// SeriesFromTSDB reconstructs a dataset.Series for one environment from
// scraped TSDB data: each contextual feature and cpu_usage must exist as a
// series carrying the env record-id label. Timestamps are aligned on the
// intersection of all metrics.
func SeriesFromTSDB(db *tsdb.DB, envLabel string, env envmeta.Environment, featureNames []string, from, to int64) (*dataset.Series, error) {
	fetch := func(metric string) (map[int64]float64, error) {
		matches := db.Query(tsdb.Labels{"__name__": metric, "env": envLabel}, from, to)
		if len(matches) == 0 {
			return nil, fmt.Errorf("pipeline: metric %q missing for env %q", metric, envLabel)
		}
		out := make(map[int64]float64)
		for _, s := range matches {
			for _, smp := range s.Samples {
				out[smp.T] = smp.V
			}
		}
		return out, nil
	}
	cpu, err := fetch("cpu_usage")
	if err != nil {
		return nil, err
	}
	features := make([]map[int64]float64, len(featureNames))
	for j, name := range featureNames {
		features[j], err = fetch(name)
		if err != nil {
			return nil, err
		}
	}
	// Intersect timestamps.
	var times []int64
	for t := range cpu {
		ok := true
		for _, f := range features {
			if _, have := f[t]; !have {
				ok = false
				break
			}
		}
		if ok {
			times = append(times, t)
		}
	}
	if len(times) == 0 {
		return nil, fmt.Errorf("pipeline: no aligned samples for env %q", envLabel)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	s := &dataset.Series{
		Env:     env,
		ChainID: env.Testbed + "|" + env.SUT + "|" + env.Testcase,
		Times:   times,
		CF:      tensor.New(len(times), len(featureNames)),
		RU:      make([]float64, len(times)),
	}
	for i, t := range times {
		for j := range featureNames {
			s.CF.Set(i, j, features[j][t])
		}
		s.RU[i] = cpu[t]
	}
	return s, nil
}

// TrainerConfig controls the training pipeline.
type TrainerConfig struct {
	Model core.Config
	Train nn.TrainConfig
	LR    float64
	// ValFraction of the pooled examples is held out for early stopping.
	ValFraction float64
	// Obs, when non-nil, receives training telemetry: per-epoch timing
	// histograms and loss-curve gauges, so one scrape of the trainer shows
	// where the publish half of the publish-then-serve loop stands.
	Obs *obs.Registry
	// Logger, when non-nil, receives per-epoch progress records.
	Logger *slog.Logger
}

// DefaultTrainerConfig returns a workable configuration for featureDim
// contextual features.
func DefaultTrainerConfig(featureDim int) TrainerConfig {
	tc := nn.DefaultTrainConfig()
	tc.Epochs = 40
	return TrainerConfig{
		Model:       core.DefaultConfig(featureDim),
		Train:       tc,
		LR:          0.005,
		ValFraction: 0.1,
	}
}

// TrainResult bundles the fitted artifacts of one training run.
type TrainResult struct {
	Model        *core.Model
	Schema       *envmeta.Schema
	Standardizer *dataset.Standardizer
	YScale       dataset.YScaler
	Fit          nn.TrainResult
	Examples     int
	// Baseline is the fitted model's prediction-error distribution on
	// held-out data — the N(μ_err, σ_err) reference the online quality
	// monitor compares serving-time errors against.
	Baseline *quality.Baseline
}

// Train runs workflow step (2): pool every series not excluded (executions
// with confirmed problems are masked out, as §3 describes), build the
// schema and standardizer, and fit a single Env2Vec model.
func Train(ds *dataset.Dataset, exclude map[*dataset.Series]bool, cfg TrainerConfig) (*TrainResult, error) {
	schema := envmeta.NewSchema()
	var examples []dataset.Example
	for _, s := range ds.Series {
		if exclude[s] {
			continue
		}
		schema.Observe(s.Env)
		examples = append(examples, dataset.WindowExamples(s, cfg.Model.Window)...)
	}
	if len(examples) == 0 {
		return nil, fmt.Errorf("pipeline: no training examples after masking")
	}
	schema.Freeze()
	// Shuffle before splitting: examples arrive grouped by series, and a
	// sequential split would hold out entire chains instead of a uniform
	// validation sample.
	rng := rand.New(rand.NewSource(cfg.Train.Seed))
	rng.Shuffle(len(examples), func(i, j int) { examples[i], examples[j] = examples[j], examples[i] })
	nVal := int(cfg.ValFraction * float64(len(examples)))
	nTrain := len(examples) - nVal
	split, err := dataset.SplitExamples(examples, nTrain, nVal, 0, schema)
	if err != nil {
		return nil, err
	}
	std := dataset.StandardizeSplit(split)
	ys := dataset.FitYScaler(split.Train)

	model := core.New(cfg.Model, schema)
	var val *nn.Batch
	if split.Val.Len() > 0 {
		val = ys.Scale(split.Val)
	}
	cfg.Train.OnEpoch = instrumentEpochs(cfg.Obs, cfg.Logger, cfg.Train.OnEpoch)
	fit := nn.Train(model, nn.NewAdam(cfg.LR), ys.Scale(split.Train), val, cfg.Train)
	return &TrainResult{
		Model: model, Schema: schema, Standardizer: std, YScale: ys,
		Fit: fit, Examples: len(examples),
		Baseline: fitErrorBaseline(model, ys, split),
	}, nil
}

// fitErrorBaseline scores the fitted model on the held-out split (the
// training split when no validation data exists) and fits the Gaussian
// error baseline that travels with the published snapshot, so the serving
// side can threshold live errors the way the paper thresholds errors on
// previous builds.
func fitErrorBaseline(model *core.Model, ys dataset.YScaler, split *dataset.Split) *quality.Baseline {
	b := split.Val
	if b.Len() == 0 {
		b = split.Train
	}
	if b.Len() == 0 {
		return nil
	}
	pred := ys.Unscale(model.Predict(ys.Scale(b)))
	errs := make([]float64, len(pred))
	for i := range pred {
		errs[i] = pred[i] - b.Y.Data[i]
	}
	g := stats.FitGaussian(errs)
	return &quality.Baseline{Mu: g.Mu, Sigma: g.Sigma, Samples: len(errs)}
}

// instrumentEpochs chains an epoch observer that feeds the training
// telemetry (epoch timing histogram, loss-curve gauges, epoch counter)
// and structured progress logs, preserving any caller-supplied hook.
// A nil registry and nil logger yield the original hook unchanged.
func instrumentEpochs(reg *obs.Registry, logger *slog.Logger, next func(int, float64, float64, time.Duration)) func(int, float64, float64, time.Duration) {
	if reg == nil && logger == nil {
		return next
	}
	epochs := reg.Counter("env2vec_train_epochs_total", "Training epochs completed.", nil)
	epochSec := reg.Histogram("env2vec_train_epoch_seconds", "Wall-clock time per training epoch.", obs.DefSecondsBuckets, nil)
	trainLoss := reg.Gauge("env2vec_train_loss", "Loss after the most recent epoch.", obs.Labels{"split": "train"})
	valLoss := reg.Gauge("env2vec_train_loss", "Loss after the most recent epoch.", obs.Labels{"split": "val"})
	return func(epoch int, tl, vl float64, d time.Duration) {
		epochs.Inc()
		epochSec.Observe(d.Seconds())
		trainLoss.Set(tl)
		if !math.IsNaN(vl) {
			valLoss.Set(vl)
		}
		if logger != nil {
			logger.Debug("epoch complete", "epoch", epoch, "train_loss", tl, "val_loss", vl, "duration", d)
		}
		if next != nil {
			next(epoch, tl, vl, d)
		}
	}
}

// ProcessExecutionWithPolicy scores an execution like ProcessExecution and
// additionally applies a termination policy: when an alarm qualifies, only
// alarms up to the termination step are reported (the execution would have
// been aborted there) along with the step and a terminated flag.
func (w *Workflow) ProcessExecutionWithPolicy(detector string, s *dataset.Series, p TerminationPolicy) (alarms []anomaly.Alarm, stopAt int, terminated bool) {
	all := w.ProcessExecution(detector, s)
	stopAt, terminated = EarlyTerminationStep(all, p)
	if !terminated {
		return all, -1, false
	}
	for _, a := range all {
		if a.StartIdx <= stopAt {
			if a.EndIdx > stopAt {
				a.EndIdx = stopAt
			}
			alarms = append(alarms, a)
		}
	}
	return alarms, stopAt, true
}

// TerminationPolicy encodes the automated action of workflow step (4):
// alarms can trigger early termination of the test-case execution, freeing
// the testbed as soon as a sufficiently severe problem is confirmed.
type TerminationPolicy struct {
	MinPeakDev  float64 // minimum |pred−actual| peak to act on
	MinDuration int     // minimum alarm duration in timesteps
}

// ShouldTerminate reports whether the alarm is severe enough to abort.
func (p TerminationPolicy) ShouldTerminate(a anomaly.Alarm) bool {
	return a.PeakDev >= p.MinPeakDev && a.Duration() >= p.MinDuration
}

// EarlyTerminationStep returns the first timestep at which the policy would
// have aborted the execution, and whether any alarm qualified.
func EarlyTerminationStep(alarms []anomaly.Alarm, p TerminationPolicy) (int, bool) {
	best := -1
	for _, a := range alarms {
		if !p.ShouldTerminate(a) {
			continue
		}
		// Termination happens once the alarm has lasted MinDuration steps.
		at := a.StartIdx + p.MinDuration - 1
		if at < a.StartIdx {
			at = a.StartIdx
		}
		if best < 0 || at < best {
			best = at
		}
	}
	return best, best >= 0
}

// IncrementalTrain continues training an existing model with data from new
// executions — the remedy §4.3 prescribes once an initially-unseen
// environment starts accumulating history. The existing schema is frozen,
// so genuinely new metadata values keep flowing through <unk>; the existing
// standardizer and target scale are reused so old and new data stay
// commensurable.
//
// A fit whose last training loss is not finite has overwritten the weights
// with NaN or Inf; IncrementalTrain then puts back the weights the model had
// on entry and returns ErrDiverged, so the model a Workflow keeps scoring
// with is the one that worked. The returned nn.TrainResult still carries the
// loss that was seen.
func IncrementalTrain(tr *TrainResult, newSeries []*dataset.Series, epochs int, lr float64) (nn.TrainResult, error) {
	window := tr.Model.Config().Window
	var examples []dataset.Example
	for _, s := range newSeries {
		examples = append(examples, dataset.WindowExamples(s, window)...)
	}
	if len(examples) == 0 {
		return nn.TrainResult{}, fmt.Errorf("pipeline: incremental training with no examples")
	}
	batch := dataset.ToBatch(examples, tr.Schema)
	tr.Standardizer.Apply(batch.X)
	scaled := tr.YScale.Scale(batch)
	cfg := nn.TrainConfig{Epochs: epochs, BatchSize: 32, Seed: 1}
	params := tr.Model.Params()
	before := nn.TakeSnapshot(params, nil)
	fit := nn.Train(tr.Model, nn.NewAdam(lr), scaled, nil, cfg)
	if math.IsNaN(fit.TrainLossLast) || math.IsInf(fit.TrainLossLast, 0) {
		if err := before.Restore(params); err != nil {
			return fit, err
		}
		return fit, fmt.Errorf("%w: last training loss %v", ErrDiverged, fit.TrainLossLast)
	}
	tr.Examples += len(examples)
	return fit, nil
}

// ErrDiverged reports an incremental fit that ended on a non-finite loss.
// The model is back at the weights it had before the fit.
var ErrDiverged = errors.New("pipeline: incremental fit diverged, weights restored")

// PublishModel uploads the trained model to the registry (step 2 → 5).
func PublishModel(client *modelserver.Client, name string, tr *TrainResult) (int, error) {
	return client.Publish(name, tr.Model.Snapshot())
}

// PublishForServing uploads the trained model with the serving artifacts
// (architecture config, frozen vocabularies, scalers) attached to the
// snapshot, so the online prediction service can reconstruct a full
// predictor from the registry alone — the publish half of the
// publish-then-serve path.
func PublishForServing(client *modelserver.Client, name string, tr *TrainResult) (int, error) {
	snap := tr.Model.Snapshot()
	if err := serve.AttachArtifacts(snap, tr.Model.Config(), tr.Schema, tr.Standardizer, tr.YScale, tr.Baseline); err != nil {
		return 0, err
	}
	return client.Publish(name, snap)
}

// FetchModel downloads the latest snapshot into a structurally matching
// model (step 5).
func FetchModel(client *modelserver.Client, name string, into *core.Model) (int, error) {
	snap, ver, err := client.FetchLatest(name)
	if err != nil {
		return 0, err
	}
	if err := into.Restore(snap); err != nil {
		return 0, err
	}
	return ver, nil
}

// Workflow is the prediction pipeline (steps 3–4): it scores executions
// with the trained model, maintains per-chain error models from historical
// builds, and emits alarms.
type Workflow struct {
	Model        *core.Model
	Schema       *envmeta.Schema
	Standardizer *dataset.Standardizer
	YScale       dataset.YScaler
	Detect       anomaly.Config
	MaxGap       int // alarm merge gap (timesteps)

	mu          sync.Mutex
	errorModels map[string]anomaly.ErrorModel
}

// NewWorkflow assembles a prediction pipeline from training artifacts.
func NewWorkflow(tr *TrainResult, detect anomaly.Config) *Workflow {
	return &Workflow{
		Model:        tr.Model,
		Schema:       tr.Schema,
		Standardizer: tr.Standardizer,
		YScale:       tr.YScale,
		Detect:       detect,
		MaxGap:       1,
		errorModels:  make(map[string]anomaly.ErrorModel),
	}
}

// predictSeries standardizes and scores one execution, returning aligned
// predictions and actuals (both of length len−window) plus the offset of
// the first scored timestep.
func (w *Workflow) predictSeries(s *dataset.Series) (pred, actual []float64, offset int) {
	window := w.Model.Config().Window
	exs := dataset.WindowExamples(s, window)
	b := dataset.ToBatch(exs, w.Schema)
	w.Standardizer.Apply(b.X)
	pred = w.YScale.Unscale(w.Model.Predict(w.YScale.Scale(b)))
	actual = make([]float64, len(exs))
	for i, ex := range exs {
		actual[i] = ex.Y
	}
	return pred, actual, window
}

// CalibrateChain fits the chain's error model from its historical
// (pre-upgrade) builds. Call once per chain before scoring new builds.
func (w *Workflow) CalibrateChain(chainID string, history []*dataset.Series) {
	var preds, actuals []float64
	for _, s := range history {
		p, a, _ := w.predictSeries(s)
		preds = append(preds, p...)
		actuals = append(actuals, a...)
	}
	w.mu.Lock()
	w.errorModels[chainID] = anomaly.FitErrorModel(preds, actuals)
	w.mu.Unlock()
}

// ErrorModel returns the calibrated model for a chain.
func (w *Workflow) ErrorModel(chainID string) (anomaly.ErrorModel, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	em, ok := w.errorModels[chainID]
	return em, ok
}

// ProcessExecution scores a new build's execution and returns its alarms.
// When the chain has no calibrated error model (an unseen environment,
// §4.3), the error distribution is computed from the execution itself.
func (w *Workflow) ProcessExecution(detector string, s *dataset.Series) []anomaly.Alarm {
	pred, actual, offset := w.predictSeries(s)
	w.mu.Lock()
	em, ok := w.errorModels[s.ChainID]
	w.mu.Unlock()
	var flags []bool
	if ok {
		flags = anomaly.Flag(pred, actual, em, w.Detect)
	} else {
		flags = anomaly.SelfFlag(pred, actual, w.Detect)
	}
	// Re-align flags and predictions with the full series.
	fullFlags := make([]bool, s.Len())
	fullPred := make([]float64, s.Len())
	copy(fullPred, s.RU) // unscored prefix has zero deviation
	for i, f := range flags {
		fullFlags[offset+i] = f
		fullPred[offset+i] = pred[i]
	}
	return anomaly.MergeAlarms(detector, s, fullFlags, fullPred, w.MaxGap)
}
