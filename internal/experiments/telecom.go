package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"env2vec/internal/anomaly"
	"env2vec/internal/baselines"
	"env2vec/internal/dataset"
	"env2vec/internal/envmeta"
	"env2vec/internal/metrics"
	"env2vec/internal/nn"
	"env2vec/internal/pipeline"
	"env2vec/internal/stats"
	"env2vec/internal/telecom"
	"env2vec/internal/tensor"
)

// TelecomOptions scales the §4.2/§4.3 experiments.
type TelecomOptions struct {
	Corpus  telecom.Config
	Window  int
	Hidden  int
	GRU     int
	Epochs  int // pooled-model training epochs
	ChainEp int // per-chain RFNN training epochs
	Seed    int64
	// IncludeSlow adds RFReg, FNN, and SVR to the per-chain comparison
	// (Figure 4 "all methods"); they multiply runtime by ~3×.
	IncludeSlow bool
}

// DefaultTelecomOptions returns the evaluation-scale settings (125 chains,
// 11 fault executions).
func DefaultTelecomOptions() TelecomOptions {
	return TelecomOptions{
		Corpus: telecom.DefaultConfig(),
		Window: 4, Hidden: 48, GRU: 24,
		Epochs: 25, ChainEp: 30, Seed: 1,
		IncludeSlow: true,
	}
}

// QuickTelecomOptions returns unit-test-scale settings.
func QuickTelecomOptions() TelecomOptions {
	return TelecomOptions{
		Corpus: telecom.SmallConfig(),
		Window: 3, Hidden: 12, GRU: 6,
		Epochs: 6, ChainEp: 6, Seed: 1,
	}
}

// Lab shares expensive artifacts (the corpus, the pooled models, per-chain
// baselines) across the telecom experiments so that running all tables and
// figures trains each model exactly once.
type Lab struct {
	Opts   TelecomOptions
	Corpus *telecom.Corpus

	pooled       *pipeline.TrainResult // Env2Vec on all chain histories
	pooledBlind  *pipeline.TrainResult // Env2Vec without fault-chain data (§4.3)
	rfnnAll      *pooledRFNN           // RFNN_all on all chain histories
	rfnnAllBlind *pooledRFNN
	chains       map[string]*chainModels

	trainSecsPooled float64
	trainSecsRidge  float64 // total across chains
}

// pooledRFNN wraps a pooled RFNN_all with its preprocessing artifacts.
type pooledRFNN struct {
	model  *baselines.RFNN
	schema *envmeta.Schema
	std    *dataset.Standardizer
	ys     dataset.YScaler
}

// chainModels holds the per-chain baselines and their error models.
type chainModels struct {
	ridge, ridgeTS   *baselines.Ridge
	rfnn             *baselines.RFNN
	forest           *baselines.RandomForest
	fnn              *nn.MLP
	svr              *baselines.SVR
	std              *dataset.Standardizer
	ys               dataset.YScaler
	emRidge          anomaly.ErrorModel
	emRidgeTS        anomaly.ErrorModel
	histExampleCount int
	test             *nn.Batch // the current build's examples, standardized (testBatch)
}

// NewLab generates the corpus and prepares lazy state.
func NewLab(opts TelecomOptions) *Lab {
	opts.Corpus.Seed = opts.Seed
	return &Lab{
		Opts:   opts,
		Corpus: telecom.Generate(opts.Corpus),
		chains: make(map[string]*chainModels),
	}
}

// history returns a chain's pre-upgrade builds.
func (l *Lab) history(chainID string) []*dataset.Series {
	chain := l.Corpus.ChainSeries[chainID]
	return chain[:len(chain)-1]
}

// current returns the chain's newest build (the test execution).
func (l *Lab) current(chainID string) *dataset.Series {
	return l.Corpus.Current[chainID]
}

// currentBuilds is the training mask of the pooled models: every chain's
// current build, held out as its test execution.
func (l *Lab) currentBuilds() map[*dataset.Series]bool {
	exclude := map[*dataset.Series]bool{}
	for _, id := range l.Corpus.ChainOrder {
		exclude[l.current(id)] = true
	}
	return exclude
}

// blindBuilds is the training mask of the §4.3 study: the current builds
// plus every build of the fault chains.
func (l *Lab) blindBuilds() map[*dataset.Series]bool {
	exclude := l.currentBuilds()
	for _, e := range l.Corpus.FaultTargets {
		for _, s := range l.Corpus.ChainSeries[e.Series.ChainID] {
			exclude[s] = true
		}
	}
	return exclude
}

// trainerConfig assembles the pooled-model configuration.
func (l *Lab) trainerConfig() pipeline.TrainerConfig {
	cfg := pipeline.DefaultTrainerConfig(telecom.NumFeatures)
	cfg.Model.Hidden = l.Opts.Hidden
	cfg.Model.GRUHidden = l.Opts.GRU
	cfg.Model.Window = l.Opts.Window
	cfg.Model.Seed = l.Opts.Seed
	cfg.Train.Epochs = l.Opts.Epochs
	cfg.Train.BatchSize = 64
	cfg.Train.Patience = 6
	cfg.Train.Seed = l.Opts.Seed
	return cfg
}

// Pooled trains (once) the single generic Env2Vec model on every chain's
// historical builds; current builds are held out as test executions.
func (l *Lab) Pooled() *pipeline.TrainResult {
	if l.pooled != nil {
		return l.pooled
	}
	start := time.Now()
	tr, err := pipeline.Train(l.Corpus.Dataset, l.currentBuilds(), l.trainerConfig())
	if err != nil {
		panic(fmt.Sprintf("experiments: pooled training: %v", err))
	}
	l.trainSecsPooled = time.Since(start).Seconds()
	l.pooled = tr
	return tr
}

// PooledBlind trains Env2Vec excluding every build (history and current) of
// the fault chains, for the unseen-environment study of §4.3.
func (l *Lab) PooledBlind() *pipeline.TrainResult {
	if l.pooledBlind != nil {
		return l.pooledBlind
	}
	tr, err := pipeline.Train(l.Corpus.Dataset, l.blindBuilds(), l.trainerConfig())
	if err != nil {
		panic(fmt.Sprintf("experiments: blind pooled training: %v", err))
	}
	l.pooledBlind = tr
	return tr
}

// trainRFNNAll trains a pooled RFNN without embeddings on the series not in
// exclude.
func (l *Lab) trainRFNNAll(exclude map[*dataset.Series]bool) *pooledRFNN {
	schema := envmeta.NewSchema()
	var examples []dataset.Example
	for _, s := range l.Corpus.Dataset.Series {
		if exclude[s] {
			continue
		}
		schema.Observe(s.Env)
		examples = append(examples, dataset.WindowExamples(s, l.Opts.Window)...)
	}
	schema.Freeze()
	nVal := len(examples) / 10
	split, err := dataset.SplitExamples(examples, len(examples)-nVal, nVal, 0, schema)
	if err != nil {
		panic(fmt.Sprintf("experiments: rfnn_all split: %v", err))
	}
	std := dataset.StandardizeSplit(split)
	ys := dataset.FitYScaler(split.Train)
	m := baselines.NewRFNN(baselines.RFNNConfig{
		In: telecom.NumFeatures, Hidden: l.Opts.Hidden, GRUHidden: l.Opts.GRU,
		DenseDim: l.Opts.GRU, Dropout: 0.1, Seed: l.Opts.Seed,
	})
	tc := nn.TrainConfig{Epochs: l.Opts.Epochs, BatchSize: 64, Patience: 6, MinDelta: 1e-5, Seed: l.Opts.Seed}
	nn.Train(m, nn.NewAdam(0.005), ys.Scale(split.Train), ys.Scale(split.Val), tc)
	return &pooledRFNN{model: m, schema: schema, std: std, ys: ys}
}

// RFNNAll returns (training once) the pooled no-embedding ablation.
func (l *Lab) RFNNAll() *pooledRFNN {
	if l.rfnnAll == nil {
		l.rfnnAll = l.trainRFNNAll(l.currentBuilds())
	}
	return l.rfnnAll
}

// RFNNAllBlind is the §4.3 variant with fault chains fully excluded.
func (l *Lab) RFNNAllBlind() *pooledRFNN {
	if l.rfnnAllBlind == nil {
		l.rfnnAllBlind = l.trainRFNNAll(l.blindBuilds())
	}
	return l.rfnnAllBlind
}

// predictPooled runs a pooled RFNN on one series, returning raw-unit
// predictions aligned to timesteps [window, len).
func (p *pooledRFNN) predictSeries(s *dataset.Series, window int) (pred, actual []float64) {
	exs := dataset.WindowExamples(s, window)
	b := dataset.ToBatch(exs, p.schema)
	p.std.Apply(b.X)
	pred = p.ys.Unscale(p.model.Predict(p.ys.Scale(b)))
	actual = make([]float64, len(exs))
	for i, ex := range exs {
		actual[i] = ex.Y
	}
	return pred, actual
}

// Chain fits (once) the per-chain baselines on the chain's history.
func (l *Lab) Chain(chainID string) *chainModels {
	if cm, ok := l.chains[chainID]; ok {
		return cm
	}
	hist := l.history(chainID)
	var examples []dataset.Example
	for _, s := range hist {
		examples = append(examples, dataset.WindowExamples(s, l.Opts.Window)...)
	}
	nVal := len(examples) / 6
	nTrain := len(examples) - nVal
	split, err := dataset.SplitExamples(examples, nTrain, nVal, 0, nil)
	if err != nil {
		panic(fmt.Sprintf("experiments: chain %s split: %v", chainID, err))
	}
	std := dataset.StandardizeSplit(split)
	ys := dataset.FitYScaler(split.Train)
	cm := &chainModels{std: std, ys: ys, histExampleCount: len(examples)}

	start := time.Now()
	cm.ridge, err = baselines.FitRidgeCV(split.Train, split.Val, false)
	if err != nil {
		panic(fmt.Sprintf("experiments: chain %s ridge: %v", chainID, err))
	}
	cm.ridgeTS, err = baselines.FitRidgeCV(split.Train, split.Val, true)
	if err != nil {
		panic(fmt.Sprintf("experiments: chain %s ridge_ts: %v", chainID, err))
	}
	l.trainSecsRidge += time.Since(start).Seconds()

	cm.rfnn = baselines.NewRFNN(baselines.RFNNConfig{
		In: telecom.NumFeatures, Hidden: l.Opts.Hidden, GRUHidden: l.Opts.GRU,
		DenseDim: l.Opts.GRU, Dropout: 0.1, Seed: l.Opts.Seed,
	})
	tc := nn.TrainConfig{Epochs: l.Opts.ChainEp, BatchSize: 32, Patience: 6, MinDelta: 1e-5, Seed: l.Opts.Seed}
	nn.Train(cm.rfnn, nn.NewAdam(0.01), ys.Scale(split.Train), ys.Scale(split.Val), tc)

	if l.Opts.IncludeSlow {
		cm.forest, err = baselines.FitForestCV(split.Train, split.Val, 50, l.Opts.Seed)
		if err != nil {
			panic(fmt.Sprintf("experiments: chain %s forest: %v", chainID, err))
		}
		cm.fnn = nn.NewMLP("fnn."+chainID, telecom.NumFeatures, l.Opts.Hidden, nn.Sigmoid, 0.1, rand.New(rand.NewSource(l.Opts.Seed)))
		nn.Train(cm.fnn, nn.NewAdam(0.01), ys.Scale(split.Train), ys.Scale(split.Val), tc)
		cm.svr = baselines.NewSVR(10, 0.1, baselines.KernelRBF)
		if err := cm.svr.Fit(ys.Scale(split.Train)); err != nil {
			panic(fmt.Sprintf("experiments: chain %s svr: %v", chainID, err))
		}
	}

	// Error models from historical predictions (for Table 5).
	histBatch := dataset.ToBatch(examples, nil)
	std.Apply(histBatch.X)
	cm.emRidge = anomaly.FitErrorModel(cm.ridge.Predict(histBatch), histBatch.Y.Data)
	cm.emRidgeTS = anomaly.FitErrorModel(cm.ridgeTS.Predict(histBatch), histBatch.Y.Data)

	l.chains[chainID] = cm
	return cm
}

// testBatch standardizes the chain's current-build examples with the
// chain's own scaler, once; callers only read it.
func (l *Lab) testBatch(chainID string) *nn.Batch {
	cm := l.Chain(chainID)
	if cm.test == nil {
		exs := dataset.WindowExamples(l.current(chainID), l.Opts.Window)
		cm.test = dataset.ToBatch(exs, nil)
		cm.std.Apply(cm.test.X)
	}
	return cm.test
}

// scored is one method's predictions over a chain's current build and the
// actuals they are scored against.
type scored struct{ pred, actual []float64 }

// chainScores scores every method once on the chain's current build.
// Methods: Ridge, Ridge_ts, RFNN (+RFReg, FNN, SVR when IncludeSlow),
// RFNN_all, Env2Vec.
func (l *Lab) chainScores(chainID string) map[string]scored {
	cm := l.Chain(chainID)
	b := l.testBatch(chainID)
	y := b.Y.Data
	out := map[string]scored{
		"Ridge":    {cm.ridge.Predict(b), y},
		"Ridge_ts": {cm.ridgeTS.Predict(b), y},
		"RFNN":     {cm.ys.Unscale(cm.rfnn.Predict(cm.ys.Scale(b))), y},
	}
	if l.Opts.IncludeSlow {
		out["RFReg"] = scored{cm.forest.Predict(b), y}
		out["FNN"] = scored{cm.ys.Unscale(cm.fnn.Predict(cm.ys.Scale(b))), y}
		out["SVR"] = scored{cm.ys.Unscale(cm.svr.Predict(cm.ys.Scale(b))), y}
	}
	// Pooled models.
	cur := l.current(chainID)
	pa, act := l.RFNNAll().predictSeries(cur, l.Opts.Window)
	out["RFNN_all"] = scored{pa, act}
	pe, ae, _ := pipeline.NewWorkflow(l.Pooled(), anomaly.Config{Gamma: 3}).PredictSeries(cur)
	out["Env2Vec"] = scored{pe, ae}
	return out
}

// Figure1Result carries the per-chain linear-regression study.
type Figure1Result struct {
	FeatureNames []string
	ChainIDs     []string
	// Weights is features×chains: symmetrically log-normalized linear
	// regression coefficients (the heatmap of Figure 1 top). Zero cells
	// mean the metric was unavailable or unimportant on that chain.
	Weights *tensor.Matrix
	// Residual boxplots per chain (Figure 1 bottom); Red flags chains with
	// at least one test residual above 10 CPU points.
	Residuals map[string]stats.BoxStats
	Red       map[string]bool
}

// RunFigure1 fits one plain linear model per build chain and reports the
// coefficient heatmap and test-residual boxplots of Figure 1.
func (l *Lab) RunFigure1() *Figure1Result {
	res := &Figure1Result{
		FeatureNames: l.Corpus.Dataset.FeatureNames,
		ChainIDs:     l.Corpus.ChainOrder,
		Weights:      tensor.New(telecom.NumFeatures, len(l.Corpus.ChainOrder)),
		Residuals:    make(map[string]stats.BoxStats),
		Red:          make(map[string]bool),
	}
	for ci, chainID := range l.Corpus.ChainOrder {
		cm := l.Chain(chainID)
		w, _ := cm.ridge.Coefficients()
		for j := 0; j < telecom.NumFeatures && j < len(w); j++ {
			res.Weights.Set(j, ci, symlog(w[j]))
		}
		b := l.testBatch(chainID)
		resid := metrics.Errors(cm.ridge.Predict(b), b.Y.Data)
		abs := make([]float64, len(resid))
		maxAbs := 0.0
		for i, r := range resid {
			abs[i] = math.Abs(r)
			if abs[i] > maxAbs {
				maxAbs = abs[i]
			}
		}
		res.Residuals[chainID] = stats.Boxplot(abs)
		res.Red[chainID] = maxAbs > 10
	}
	return res
}

// symlog is the symmetric log normalization used for the Figure 1 heatmap.
func symlog(w float64) float64 {
	if w == 0 {
		return 0
	}
	s := 1.0
	if w < 0 {
		s = -1
	}
	return s * math.Log1p(math.Abs(w))
}

// Figure34Result carries the per-chain MAE study behind Figures 3 and 4.
type Figure34Result struct {
	// PerChainMAE: method → chainID → test MAE.
	PerChainMAE map[string]map[string]float64
	// Summary: method → mean MAE/MSE across chains (Figure 3 inset table).
	Summary map[string]MethodScore
	// Improvement of Env2Vec (and RFNN_all) over Ridge_ts per chain,
	// sorted ascending (Figure 3a/3b bars).
	ImprovementEnv2Vec []float64
	ImprovementRFNNAll []float64
}

// RunFigure34 evaluates every method on every chain's current build.
func (l *Lab) RunFigure34() *Figure34Result {
	res := &Figure34Result{
		PerChainMAE: make(map[string]map[string]float64),
		Summary:     make(map[string]MethodScore),
	}
	mses := make(map[string][]float64)
	for _, chainID := range l.Corpus.ChainOrder {
		for method, sc := range l.chainScores(chainID) {
			if res.PerChainMAE[method] == nil {
				res.PerChainMAE[method] = make(map[string]float64)
			}
			res.PerChainMAE[method][chainID] = metrics.MAE(sc.pred, sc.actual)
			mses[method] = append(mses[method], metrics.MSE(sc.pred, sc.actual))
		}
	}
	for method, byChain := range res.PerChainMAE {
		var maes []float64
		for _, id := range l.Corpus.ChainOrder {
			maes = append(maes, byChain[id])
		}
		res.Summary[method] = MethodScore{Method: method, MAE: stats.Mean(maes), MSE: stats.Mean(mses[method]), Runs: 1}
	}
	for _, id := range l.Corpus.ChainOrder {
		base := res.PerChainMAE["Ridge_ts"][id]
		res.ImprovementEnv2Vec = append(res.ImprovementEnv2Vec, base-res.PerChainMAE["Env2Vec"][id])
		res.ImprovementRFNNAll = append(res.ImprovementRFNNAll, base-res.PerChainMAE["RFNN_all"][id])
	}
	sort.Float64s(res.ImprovementEnv2Vec)
	sort.Float64s(res.ImprovementRFNNAll)
	return res
}

// Figure4CDF returns the (x, F(x)) step points of each method's per-chain
// MAE distribution — the curves of Figure 4.
func Figure4CDF(res *Figure34Result) map[string][][2]float64 {
	out := make(map[string][][2]float64)
	for method, byChain := range res.PerChainMAE {
		var maes []float64
		for _, v := range byChain {
			maes = append(maes, v)
		}
		xs, fs := stats.NewECDF(maes).Points()
		pts := make([][2]float64, len(xs))
		for i := range xs {
			pts[i] = [2]float64{xs[i], fs[i]}
		}
		out[method] = pts
	}
	return out
}
