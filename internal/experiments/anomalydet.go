package experiments

import (
	"fmt"
	"math"
	"sort"

	"env2vec/internal/anomaly"
	"env2vec/internal/dataset"
	"env2vec/internal/envmeta"
	"env2vec/internal/htm"
	"env2vec/internal/metrics"
	"env2vec/internal/pipeline"
	"env2vec/internal/stats"
	"env2vec/internal/telecom"
)

// Table5Row is one row of Table 5 / Table 6.
type Table5Row struct {
	Method   string
	Gamma    float64 // 0 for HTM-AD (threshold-based, γ-independent)
	Alarms   int
	Correct  int
	AT, AF   float64
	Detected int // ground-truth episodes covered by ≥1 alarm
}

// Table5Result aggregates one detection study.
type Table5Result struct {
	Rows         []Table5Row
	TrueProblems int // labelled problem episodes across the fault executions
}

const absFilterCPU = 5.0 // the 5% absolute filter of §4.2.2

// RunTable5 reproduces Table 5: alarm quality of HTM-AD, Ridge, Ridge_ts,
// RFNN_all, and Env2Vec on the fault-injected test executions, for
// γ ∈ {1,2,3}. All methods use per-chain error distributions fitted on the
// chain's historical builds, plus the 5-point absolute filter.
func (l *Lab) RunTable5() *Table5Result {
	res := &Table5Result{}
	for _, exec := range l.Corpus.FaultTargets {
		res.TrueProblems += anomaly.TrueEpisodes(exec.Series)
	}

	// HTM-AD: stream history then the execution, alarm on score ≥ threshold.
	htmStats, htmDetected := l.runHTM()
	res.Rows = append(res.Rows, Table5Row{
		Method: "HTM-AD", Alarms: htmStats.Alarms, Correct: htmStats.Correct,
		AT: htmStats.AT(), AF: htmStats.AF(), Detected: htmDetected,
	})

	wf := pipeline.NewWorkflow(l.Pooled(), anomaly.Config{Gamma: 1, AbsFilter: absFilterCPU})
	for _, chainID := range l.Corpus.ChainOrder {
		wf.CalibrateChain(chainID, l.history(chainID))
	}

	for _, gamma := range []float64{1, 2, 3} {
		cfg := anomaly.Config{Gamma: gamma, AbsFilter: absFilterCPU}
		for _, method := range []string{"Ridge", "Ridge_ts", "RFNN_all", "Env2Vec"} {
			var agg metrics.AlarmStats
			detected := 0
			for _, exec := range l.Corpus.FaultTargets {
				alarms := l.detectWith(method, wf, exec.Series, cfg)
				st := anomaly.Evaluate(alarms, exec.Series)
				agg.Add(st)
				detected += anomaly.DetectedEpisodes(alarms, exec.Series)
			}
			res.Rows = append(res.Rows, Table5Row{
				Method: method, Gamma: gamma,
				Alarms: agg.Alarms, Correct: agg.Correct,
				AT: agg.AT(), AF: agg.AF(), Detected: detected,
			})
		}
	}
	return res
}

// detectWith produces alarms for one execution using the named method with
// per-chain historical error models.
func (l *Lab) detectWith(method string, wf *pipeline.Workflow, s *dataset.Series, cfg anomaly.Config) []anomaly.Alarm {
	switch method {
	case "Env2Vec":
		wf.Detect = cfg
		return wf.ProcessExecution("env2vec", s)
	case "RFNN_all":
		p := l.RFNNAll()
		pred, actual := p.predictSeries(s, l.Opts.Window)
		// Error model from the chain's history under the pooled model.
		var hp, ha []float64
		for _, h := range l.history(s.ChainID) {
			php, pha := p.predictSeries(h, l.Opts.Window)
			hp = append(hp, php...)
			ha = append(ha, pha...)
		}
		em := anomaly.FitErrorModel(hp, ha)
		flags := anomaly.Flag(pred, actual, em, cfg)
		return anomaly.MergeAlarms(method, s, flags, pred, l.Opts.Window, anomaly.MergeGap)
	case "Ridge", "Ridge_ts":
		cm := l.Chain(s.ChainID)
		b := l.testBatch(s.ChainID)
		var pred []float64
		var em anomaly.ErrorModel
		if method == "Ridge" {
			pred = cm.ridge.Predict(b)
			em = cm.emRidge
		} else {
			pred = cm.ridgeTS.Predict(b)
			em = cm.emRidgeTS
		}
		flags := anomaly.Flag(pred, b.Y.Data, em, cfg)
		return anomaly.MergeAlarms(method, s, flags, pred, l.Opts.Window, anomaly.MergeGap)
	}
	panic(fmt.Sprintf("experiments: unknown detection method %q", method))
}

// runHTM streams each fault chain (history then current build) through the
// HTM-AD detector and evaluates alarms on the current build.
func (l *Lab) runHTM() (metrics.AlarmStats, int) {
	var agg metrics.AlarmStats
	detected := 0
	threshold := l.Opts.HTMThreshold
	if threshold == 0 {
		threshold = htm.Threshold
	}
	for _, exec := range l.Corpus.FaultTargets {
		d := htm.New(htm.Config{})
		for _, h := range l.history(exec.Series.ChainID) {
			for _, v := range h.RU {
				d.Step(v)
			}
		}
		s := exec.Series
		flags := make([]bool, s.Len())
		for i, v := range s.RU {
			flags[i] = d.Step(v) >= threshold
		}
		alarms := anomaly.MergeAlarms("htm-ad", s, flags, s.RU, 0, anomaly.MergeGap)
		agg.Add(anomaly.Evaluate(alarms, s))
		detected += anomaly.DetectedEpisodes(alarms, s)
	}
	return agg, detected
}

// RunTable6 reproduces Table 6: detection in unseen environments. The
// pooled models are retrained with every build of the fault chains blinded
// out; at test time the error distribution comes from the execution itself
// (§4.3), and Ridge/Ridge_ts are N/A for lack of chain history.
func (l *Lab) RunTable6() *Table5Result {
	res := &Table5Result{}
	for _, exec := range l.Corpus.FaultTargets {
		res.TrueProblems += anomaly.TrueEpisodes(exec.Series)
	}
	htmStats, htmDetected := l.runHTM()
	res.Rows = append(res.Rows, Table5Row{
		Method: "HTM-AD", Alarms: htmStats.Alarms, Correct: htmStats.Correct,
		AT: htmStats.AT(), AF: htmStats.AF(), Detected: htmDetected,
	})
	res.Rows = append(res.Rows,
		Table5Row{Method: "Ridge", AT: math.NaN(), AF: math.NaN()},
		Table5Row{Method: "Ridge_ts", AT: math.NaN(), AF: math.NaN()},
	)

	blindE2V := l.PooledBlind()
	blindRFNN := l.RFNNAllBlind()
	for _, gamma := range []float64{1, 2, 3} {
		cfg := anomaly.Config{Gamma: gamma, AbsFilter: absFilterCPU}

		var aggR metrics.AlarmStats
		detR := 0
		for _, exec := range l.Corpus.FaultTargets {
			pred, actual := blindRFNN.predictSeries(exec.Series, l.Opts.Window)
			flags := anomaly.SelfFlag(pred, actual, cfg)
			alarms := anomaly.MergeAlarms("RFNN_all", exec.Series, flags, pred, l.Opts.Window, anomaly.MergeGap)
			aggR.Add(anomaly.Evaluate(alarms, exec.Series))
			detR += anomaly.DetectedEpisodes(alarms, exec.Series)
		}
		res.Rows = append(res.Rows, Table5Row{
			Method: "RFNN_all", Gamma: gamma,
			Alarms: aggR.Alarms, Correct: aggR.Correct, AT: aggR.AT(), AF: aggR.AF(), Detected: detR,
		})

		wf := pipeline.NewWorkflow(blindE2V, cfg)
		var aggE metrics.AlarmStats
		detE := 0
		for _, exec := range l.Corpus.FaultTargets {
			// No calibration: the workflow falls back to the execution's
			// own error distribution, exactly the §4.3 protocol.
			alarms := wf.ProcessExecution("env2vec", exec.Series)
			aggE.Add(anomaly.Evaluate(alarms, exec.Series))
			detE += anomaly.DetectedEpisodes(alarms, exec.Series)
		}
		res.Rows = append(res.Rows, Table5Row{
			Method: "Env2Vec", Gamma: gamma,
			Alarms: aggE.Alarms, Correct: aggE.Correct, AT: aggE.AT(), AF: aggE.AF(), Detected: detE,
		})
	}
	return res
}

// RenderTable5 renders a detection study like the paper's Tables 5/6.
func RenderTable5(res *Table5Result) string {
	header := []string{"Method", "gamma", "# alarms", "correct", "A_T", "A_F", "detected"}
	var rows [][]string
	for _, r := range res.Rows {
		g := "-"
		if r.Gamma > 0 {
			g = fmt.Sprintf("%.0f", r.Gamma)
		}
		alarms, correct, det := fmt.Sprint(r.Alarms), fmt.Sprint(r.Correct), fmt.Sprint(r.Detected)
		if math.IsNaN(r.AT) && r.Alarms == 0 && r.Method != "HTM-AD" && r.Gamma == 0 {
			alarms, correct, det = "N/A", "N/A", "N/A"
		}
		rows = append(rows, []string{r.Method, g, alarms, correct, fmtF(r.AT), fmtF(r.AF), det})
	}
	out := RenderTable(header, rows)
	return out + fmt.Sprintf("\nground-truth performance problems: %d\n", res.TrueProblems)
}

// Figure6Point is one environment in the 2-D embedding projection.
type Figure6Point struct {
	Env       envmeta.Environment
	BuildType string
	X, Y      float64
}

// Figure6Result carries the PCA projection of learned environment
// embeddings plus a cluster-quality summary.
type Figure6Result struct {
	Points []Figure6Point
	// Silhouette-style ratio: mean inter-build-type distance divided by
	// mean intra-build-type distance (>1 ⇒ build types cluster).
	SeparationRatio float64
	Explained       []float64
}

// RunFigure6 projects the concatenated environment embeddings of all
// training environments to 2-D with PCA and measures build-type clustering.
func (l *Lab) RunFigure6() (*Figure6Result, error) {
	tr := l.Pooled()
	// Unique training environments (history builds).
	seen := make(map[envmeta.Environment]bool)
	var envs []envmeta.Environment
	for _, chainID := range l.Corpus.ChainOrder {
		for _, s := range l.history(chainID) {
			if !seen[s.Env] {
				seen[s.Env] = true
				envs = append(envs, s.Env)
			}
		}
	}
	sort.Slice(envs, func(i, j int) bool { return envs[i].String() < envs[j].String() })
	ids := make([][envmeta.NumFeatures]int, len(envs))
	for i, e := range envs {
		ids[i] = tr.Schema.Encode(e)
	}
	mat := tr.Model.EmbeddingMatrix(ids)
	pca, err := stats.FitPCA(mat, 2)
	if err != nil {
		return nil, err
	}
	proj := pca.Transform(mat)
	res := &Figure6Result{Explained: pca.Explained}
	for i, e := range envs {
		res.Points = append(res.Points, Figure6Point{
			Env: e, BuildType: e.BuildType(),
			X: proj.At(i, 0), Y: proj.At(i, 1),
		})
	}
	res.SeparationRatio = separationRatio(res.Points)
	return res, nil
}

// separationRatio compares mean pairwise distance across build types to the
// mean within build types (computed in the 2-D projection).
func separationRatio(points []Figure6Point) float64 {
	var intra, inter float64
	var nIntra, nInter int
	for i := 0; i < len(points); i++ {
		for j := i + 1; j < len(points); j++ {
			dx := points[i].X - points[j].X
			dy := points[i].Y - points[j].Y
			d := math.Sqrt(dx*dx + dy*dy)
			if points[i].BuildType == points[j].BuildType {
				intra += d
				nIntra++
			} else {
				inter += d
				nInter++
			}
		}
	}
	if nIntra == 0 || nInter == 0 || intra == 0 {
		return math.NaN()
	}
	return (inter / float64(nInter)) / (intra / float64(nIntra))
}

// Table7Row describes one fault execution's γ=1 Env2Vec performance along
// with the training coverage of its testbed.
type Table7Row struct {
	Env             envmeta.Environment
	AT              float64
	TestbedExamples int
	CoveragePct     float64
}

// Table7Result mirrors Table 7: the under-performing execution vs the rest.
type Table7Result struct {
	Rows []Table7Row
	// Summary statistics as the paper reports them.
	WorstAT, RestMeanAT              float64
	WorstExamples                    int
	RestMeanExamples, RestMeanCovPct float64
	WorstCoveragePct                 float64
}

// RunTable7 reproduces the Table 7 coverage analysis at γ=1.
func (l *Lab) RunTable7() *Table7Result {
	wf := pipeline.NewWorkflow(l.Pooled(), anomaly.Config{Gamma: 1, AbsFilter: absFilterCPU})
	for _, chainID := range l.Corpus.ChainOrder {
		wf.CalibrateChain(chainID, l.history(chainID))
	}
	// Testbed coverage across training examples.
	testbedExamples := make(map[string]int)
	total := 0
	for _, chainID := range l.Corpus.ChainOrder {
		for _, s := range l.history(chainID) {
			n := s.Len() - l.Opts.Window
			testbedExamples[s.Env.Testbed] += n
			total += n
		}
	}
	res := &Table7Result{}
	for _, exec := range l.Corpus.FaultTargets {
		alarms := wf.ProcessExecution("env2vec", exec.Series)
		st := anomaly.Evaluate(alarms, exec.Series)
		cnt := testbedExamples[exec.Series.Env.Testbed]
		res.Rows = append(res.Rows, Table7Row{
			Env: exec.Series.Env, AT: st.AT(),
			TestbedExamples: cnt,
			CoveragePct:     100 * float64(cnt) / float64(total),
		})
	}
	sort.Slice(res.Rows, func(i, j int) bool { return less(res.Rows[i].AT, res.Rows[j].AT) })
	if len(res.Rows) > 0 {
		worst := res.Rows[0]
		res.WorstAT = worst.AT
		res.WorstExamples = worst.TestbedExamples
		res.WorstCoveragePct = worst.CoveragePct
		var ats, exs, covs []float64
		for _, r := range res.Rows[1:] {
			if !math.IsNaN(r.AT) {
				ats = append(ats, r.AT)
			}
			exs = append(exs, float64(r.TestbedExamples))
			covs = append(covs, r.CoveragePct)
		}
		res.RestMeanAT = stats.Mean(ats)
		res.RestMeanExamples = stats.Mean(exs)
		res.RestMeanCovPct = stats.Mean(covs)
	}
	return res
}

// less orders NaN first (an execution with no alarms is the worst case).
func less(a, b float64) bool {
	if math.IsNaN(a) {
		return !math.IsNaN(b)
	}
	if math.IsNaN(b) {
		return false
	}
	return a < b
}

// CostReport carries the §6 discussion numbers.
type CostReport struct {
	RidgeSecondsPerChain float64
	PooledTrainSeconds   float64
	ModelBytes           int
	Parameters           int
}

// RunCostReport reproduces the training-cost and model-size discussion of
// §6 (Ridge trains in <1 s per chain; Env2Vec takes minutes and stores
// <10 MB).
func (l *Lab) RunCostReport() (*CostReport, error) {
	tr := l.Pooled() // ensures timing is recorded
	// Ensure at least a few chains have been fitted for the ridge timing.
	for _, id := range l.Corpus.ChainOrder[:min(8, len(l.Corpus.ChainOrder))] {
		l.Chain(id)
	}
	size, err := tr.Model.SizeBytes()
	if err != nil {
		return nil, err
	}
	fitted := float64(len(l.chains))
	if fitted == 0 {
		fitted = 1
	}
	return &CostReport{
		RidgeSecondsPerChain: l.trainSecsRidge / fitted,
		PooledTrainSeconds:   l.trainSecsPooled,
		ModelBytes:           size,
		Parameters:           tr.Model.NumParameters(),
	}, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// CorpusConfig re-exports the lab's corpus sizing (useful to callers that
// only hold a Lab).
func (l *Lab) CorpusConfig() telecom.Config { return l.Opts.Corpus }
