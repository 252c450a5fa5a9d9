// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact), plus micro-benchmarks of the library's hot
// paths. The experiment benchmarks run at unit-test scale so the full suite
// completes in minutes; the cmd/kdnbench and cmd/telecombench binaries run
// the same experiments at evaluation scale and are what EXPERIMENTS.md
// records.
package env2vec_test

import (
	"math/rand"
	"sync"
	"testing"

	"env2vec"
	"env2vec/internal/anomaly"
	"env2vec/internal/autodiff"
	"env2vec/internal/baselines"
	"env2vec/internal/dataset"
	"env2vec/internal/envmeta"
	"env2vec/internal/experiments"
	"env2vec/internal/htm"
	"env2vec/internal/kdn"
	"env2vec/internal/nn"
	"env2vec/internal/serve"
	"env2vec/internal/stats"
	"env2vec/internal/telecom"
	"env2vec/internal/tensor"
)

// sharedLab lazily builds one quick-scale telecom lab reused by every
// telecom benchmark, so the suite doesn't retrain per benchmark.
var (
	labOnce sync.Once
	lab     *experiments.Lab
)

func quickLab() *experiments.Lab {
	labOnce.Do(func() {
		opts := experiments.QuickTelecomOptions()
		opts.Corpus.Chains = 20
		opts.Corpus.FaultExecutions = 4
		lab = experiments.NewLab(opts)
	})
	return lab
}

// ── One benchmark per paper artifact ────────────────────────────────────

func BenchmarkTable3_KDNSplits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table3() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable4_KDNModels(b *testing.B) {
	opts := experiments.QuickTable4Options()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable4(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Scores) != 3 {
			b.Fatalf("expected 3 VNFs, got %d", len(res.Scores))
		}
	}
}

func BenchmarkFigure1_PerChainLinreg(b *testing.B) {
	l := quickLab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := l.RunFigure1()
		if res.Weights.Cols != len(res.ChainIDs) {
			b.Fatal("heatmap shape wrong")
		}
	}
}

func BenchmarkFigure3_ChainImprovement(b *testing.B) {
	l := quickLab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := l.RunFigure34()
		if len(res.ImprovementEnv2Vec) == 0 {
			b.Fatal("no improvements computed")
		}
	}
}

func BenchmarkFigure4_MAECDF(b *testing.B) {
	l := quickLab()
	res := l.RunFigure34()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdf := experiments.Figure4CDF(res)
		if len(cdf["Env2Vec"]) == 0 {
			b.Fatal("no CDF points")
		}
	}
}

func BenchmarkTable5_AnomalyDetection(b *testing.B) {
	l := quickLab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := l.RunTable5()
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFigure6_EmbeddingPCA(b *testing.B) {
	l := quickLab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := l.RunFigure6()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkTable6_UnseenEnvironments(b *testing.B) {
	l := quickLab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := l.RunTable6()
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable7_CoverageAnalysis(b *testing.B) {
	l := quickLab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := l.RunTable7()
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTrainingCost(b *testing.B) {
	// §6: Ridge trains in well under a second per chain.
	l := quickLab()
	chainID := l.Corpus.ChainOrder[0]
	hist := l.Corpus.ChainSeries[chainID]
	var examples []dataset.Example
	for _, s := range hist[:len(hist)-1] {
		examples = append(examples, dataset.WindowExamples(s, 3)...)
	}
	split, err := dataset.SplitExamples(examples, len(examples)*5/6, len(examples)/6, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	dataset.StandardizeSplit(split)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baselines.FitRidgeCV(split.Train, split.Val, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelSize(b *testing.B) {
	// §6: the serialized model stays below 10 MB.
	tr := quickLab().Pooled()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		size, err := tr.Model.SizeBytes()
		if err != nil {
			b.Fatal(err)
		}
		if size > 10*1024*1024 {
			b.Fatalf("model size %d exceeds the 10MB claim", size)
		}
	}
}

func BenchmarkAblation_PredictionHeads(b *testing.B) {
	// §3.2/§6 design-choice ablation: Hadamard vs bilinear vs MLP head vs
	// attention, on the pooled KDN task.
	opts := experiments.QuickTable4Options()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunHeadAblation(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Variants) != 4 {
			b.Fatalf("expected 4 variants")
		}
	}
}

func BenchmarkAblation_EMHoldout(b *testing.B) {
	// §6 hold-out analysis: inference-time EM feature importance.
	l := quickLab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := l.RunEMHoldout()
		if len(rows) != envmeta.NumFeatures {
			b.Fatalf("expected one row per EM feature")
		}
	}
}

// ── Library micro-benchmarks ─────────────────────────────────────────────

func benchModelAndBatch(b *testing.B, batchSize int) (*env2vec.Trained, *nn.Batch) {
	b.Helper()
	cfg := telecom.SmallConfig()
	corpus := telecom.Generate(cfg)
	tcfg := env2vec.TrainerDefaults(telecom.NumFeatures)
	tcfg.Train.Epochs = 2
	tr, err := env2vec.Train(corpus.Dataset, nil, tcfg)
	if err != nil {
		b.Fatal(err)
	}
	s := corpus.Dataset.Series[0]
	exs := dataset.WindowExamples(s, tcfg.Model.Window)
	if len(exs) > batchSize {
		exs = exs[:batchSize]
	}
	batch := dataset.ToBatch(exs, tr.Schema)
	tr.Standardizer.Apply(batch.X)
	return tr, batch
}

func BenchmarkEnv2VecPredictBatch32(b *testing.B) {
	tr, batch := benchModelAndBatch(b, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Model.Predict(batch)
	}
}

func BenchmarkEnv2VecTrainStep(b *testing.B) {
	tr, batch := benchModelAndBatch(b, 32)
	opt := nn.NewAdam(0.001)
	rng := rand.New(rand.NewSource(1))
	tape := autodiff.NewTape()
	defer tape.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tape.Reset()
		loss := tr.Model.Loss(tape, batch, true, rng)
		tape.Backward(loss)
		opt.Step(tr.Model.Params())
	}
}

func BenchmarkGRUForwardWindow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := nn.NewGRU("g", 32, rng)
	window := tensor.New(32, 4)
	window.RandNormal(rng, 1)
	tape := autodiff.NewTape()
	defer tape.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tape.Reset()
		_ = g.ForwardWindow(tape, tape.Constant(window))
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(128, 128)
	y := tensor.New(128, 128)
	out := tensor.New(128, 128)
	x.RandNormal(rng, 1)
	y.RandNormal(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulBlockedInto(out, x, y)
	}
}

func BenchmarkRidgeFit86Features(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(900, kdn.NumFeatures)
	x.RandNormal(rng, 1)
	y := tensor.New(900, 1)
	y.RandNormal(rng, 1)
	batch := &nn.Batch{X: x, Y: y}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := baselines.NewRidge(1.0, false)
		if err := r.Fit(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHTMStep(b *testing.B) {
	d := htm.New(htm.Config{})
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Step(50 + rng.NormFloat64()*5)
	}
}

func BenchmarkPCAEmbeddings(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := tensor.New(200, 40)
	m.RandNormal(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.FitPCA(m, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnomalyFlag(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 10_000
	pred := make([]float64, n)
	actual := make([]float64, n)
	for i := range pred {
		pred[i] = rng.NormFloat64()
		actual[i] = rng.NormFloat64()
	}
	em := anomaly.FitErrorModel(pred[:n/2], actual[:n/2])
	cfg := anomaly.Config{Gamma: 2, AbsFilter: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = anomaly.Flag(pred, actual, em, cfg)
	}
}

func BenchmarkTelecomGenerate(b *testing.B) {
	cfg := telecom.SmallConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = telecom.Generate(cfg)
	}
}

func BenchmarkKDNGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = kdn.Generate(kdn.Snort, int64(i))
	}
}

// benchServer stands up a prediction server over a quick-trained model and
// returns it with one raw (unstandardized) request to replay.
func benchServer(b *testing.B, maxBatch int) (*serve.Server, *serve.Request) {
	b.Helper()
	cfg := telecom.SmallConfig()
	corpus := telecom.Generate(cfg)
	tcfg := env2vec.TrainerDefaults(telecom.NumFeatures)
	tcfg.Train.Epochs = 2
	tr, err := env2vec.Train(corpus.Dataset, nil, tcfg)
	if err != nil {
		b.Fatal(err)
	}
	srv := serve.New(serve.Config{MaxBatch: maxBatch, QueueDepth: 4096})
	srv.SetBundle(&serve.Bundle{
		Name: "bench", Version: 1,
		Model: tr.Model, Schema: tr.Schema, Std: tr.Standardizer, YScale: tr.YScale,
	})
	b.Cleanup(srv.Close)
	ex := dataset.WindowExamples(corpus.Dataset.Series[0], tcfg.Model.Window)[0]
	req := &serve.Request{
		CF: ex.CF, Window: ex.Window,
		Testbed: ex.Env.Testbed, SUT: ex.Env.SUT,
		Testcase: ex.Env.Testcase, Build: ex.Env.Build,
	}
	return srv, req
}

func BenchmarkServeSingle(b *testing.B) {
	// One request per forward pass: the no-batching floor.
	srv, req := benchServer(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, code, err := srv.Do(req); err != nil || code != 200 {
			b.Fatalf("%d %v", code, err)
		}
	}
}

func BenchmarkServeBatched(b *testing.B) {
	// Concurrent callers sharing forward passes via micro-batching.
	srv, req := benchServer(b, 32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, code, err := srv.Do(req); err != nil || code != 200 {
				b.Fatalf("%d %v", code, err)
			}
		}
	})
}

func BenchmarkSchemaEncode(b *testing.B) {
	schema := envmeta.NewSchema()
	env := envmeta.Environment{Testbed: "tb1", SUT: "db", Testcase: "load", Build: "S01"}
	schema.Observe(env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = schema.Encode(env)
	}
}
