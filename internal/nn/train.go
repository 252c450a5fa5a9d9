package nn

import (
	"math"
	"math/rand"
	"time"

	"env2vec/internal/autodiff"
	"env2vec/internal/tensor"
)

// Batch groups the three Env2Vec input families for a set of examples:
// contextual features (CFs), the RU-history window, and the environment
// metadata ids. Window and EnvIDs are nil for models that do not use them
// (e.g. the FNN baseline).
type Batch struct {
	X      *tensor.Matrix // batch×f contextual features
	Window *tensor.Matrix // batch×n RU history, oldest first; may be nil
	EnvIDs [][]int        // EnvIDs[k][i] = id of env feature k for example i; may be nil
	Y      *tensor.Matrix // batch×1 targets
}

// Len returns the number of examples in the batch.
func (b *Batch) Len() int { return b.X.Rows }

// subset gathers the examples at idx into matrices from alloc; Train hands
// it the step's tape, so a mini-batch lives and dies with its graph.
func (b *Batch) subset(idx []int, alloc func(rows, cols int) *tensor.Matrix) *Batch {
	gather := func(m *tensor.Matrix) *tensor.Matrix {
		out := alloc(len(idx), m.Cols)
		tensor.GatherRowsInto(out, m, idx)
		return out
	}
	sub := &Batch{X: gather(b.X), Y: gather(b.Y)}
	if b.Window != nil {
		sub.Window = gather(b.Window)
	}
	if b.EnvIDs != nil {
		sub.EnvIDs = make([][]int, len(b.EnvIDs))
		for k, ids := range b.EnvIDs {
			sel := make([]int, len(idx))
			for i, r := range idx {
				sel[i] = ids[r]
			}
			sub.EnvIDs[k] = sel
		}
	}
	return sub
}

// Model is a trainable regressor: it can build its loss graph on a tape and
// expose its parameters to an optimizer.
type Model interface {
	// Loss constructs the scalar training loss for the batch. When train is
	// true the model may apply dropout using rng.
	Loss(t *autodiff.Tape, b *Batch, train bool, rng *rand.Rand) *autodiff.Node
	// Predict returns point predictions for every example in the batch.
	Predict(b *Batch) []float64
	// Params returns all trainable parameters.
	Params() []*Param
}

// TrainConfig controls the mini-batch training loop.
type TrainConfig struct {
	Epochs    int     // maximum epochs
	BatchSize int     // examples per step
	Patience  int     // early-stopping patience in epochs (0 disables)
	MinDelta  float64 // minimum val-loss improvement to reset patience
	Seed      int64   // shuffling / dropout seed
	// OnEpoch, when non-nil, observes each completed epoch: the 1-based
	// epoch number, mean training loss, validation loss (NaN without a
	// validation set), and the epoch's wall-clock duration including
	// validation. The training pipeline uses it to drive loss-curve gauges
	// and epoch-timing histograms.
	OnEpoch func(epoch int, trainLoss, valLoss float64, d time.Duration)
}

// DefaultTrainConfig mirrors the paper's training regime: Adam, early
// stopping on a validation set, dropout handled by the model itself.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 200, BatchSize: 32, Patience: 10, MinDelta: 1e-4, Seed: 1}
}

// TrainResult reports what the loop did.
type TrainResult struct {
	Epochs        int     // epochs actually run
	BestValLoss   float64 // best validation MSE observed
	FinalValLoss  float64 // validation MSE at stop time
	StoppedEarly  bool
	TrainLossLast float64
}

// Train fits the model on train, early-stopping on val (val may be nil to
// disable validation; then the loop runs all epochs). The best-validation
// weights are restored before returning. One tape serves every step: each
// step steps the optimizer and reads its loss before the next one resets
// the tape, and the parameters' gradients die with the tape on return.
func Train(m Model, opt Optimizer, train, val *Batch, cfg TrainConfig) TrainResult {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := train.Len()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}

	best := math.Inf(1)
	bad := 0
	var bestSnapshot [][]float64
	res := TrainResult{BestValLoss: math.Inf(1), FinalValLoss: math.Inf(1)}
	tape := autodiff.NewTape()
	defer tape.Release()

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochStart := time.Now()
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss, steps := 0.0, 0
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			tape.Reset()
			mb := train.subset(order[start:end], tape.Mat)
			loss := m.Loss(tape, mb, true, rng)
			tape.Backward(loss)
			opt.Step(m.Params())
			epochLoss += loss.Value.Data[0]
			steps++
		}
		res.Epochs = epoch + 1
		res.TrainLossLast = epochLoss / float64(steps)

		if val == nil || val.Len() == 0 {
			if cfg.OnEpoch != nil {
				cfg.OnEpoch(epoch+1, res.TrainLossLast, math.NaN(), time.Since(epochStart))
			}
			continue
		}
		vl := EvalMSE(m, val)
		res.FinalValLoss = vl
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(epoch+1, res.TrainLossLast, vl, time.Since(epochStart))
		}
		if vl < best-cfg.MinDelta {
			best = vl
			res.BestValLoss = vl
			bad = 0
			bestSnapshot = snapshot(m.Params())
		} else {
			bad++
			if cfg.Patience > 0 && bad >= cfg.Patience {
				res.StoppedEarly = true
				break
			}
		}
	}
	if bestSnapshot != nil {
		restore(m.Params(), bestSnapshot)
		res.FinalValLoss = best
	}
	if math.IsInf(res.BestValLoss, 1) && !math.IsInf(res.FinalValLoss, 1) {
		res.BestValLoss = res.FinalValLoss
	}
	return res
}

// EvalMSE computes the mean squared error of the model on the batch.
func EvalMSE(m Model, b *Batch) float64 {
	preds := m.Predict(b)
	s := 0.0
	for i, p := range preds {
		d := p - b.Y.Data[i]
		s += d * d
	}
	return s / float64(len(preds))
}

func snapshot(params []*Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		cp := make([]float64, len(p.Value.Data))
		copy(cp, p.Value.Data)
		out[i] = cp
	}
	return out
}

func restore(params []*Param, snap [][]float64) {
	for i, p := range params {
		copy(p.Value.Data, snap[i])
	}
}
