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
	return l.detectionStudy(l.table5Sources())
}

// RunTable6 reproduces Table 6: detection in unseen environments. The
// pooled models are retrained with every build of the fault chains blinded
// out; at test time the error distribution comes from the execution itself
// (§4.3), and Ridge/Ridge_ts are N/A for lack of chain history.
func (l *Lab) RunTable6() *Table5Result {
	return l.detectionStudy(l.table6Sources(),
		Table5Row{Method: "Ridge", AT: math.NaN(), AF: math.NaN()},
		Table5Row{Method: "Ridge_ts", AT: math.NaN(), AF: math.NaN()},
	)
}

// detectionStudy tallies HTM-AD, the given fixed rows, then every source at
// each γ.
func (l *Lab) detectionStudy(srcs []source, fixed ...Table5Row) *Table5Result {
	res := &Table5Result{}
	for _, exec := range l.Corpus.FaultTargets {
		res.TrueProblems += anomaly.TrueEpisodes(exec.Series)
	}
	res.Rows = append(res.Rows, l.tally("HTM-AD", 0, l.htmAlarms()))
	res.Rows = append(res.Rows, fixed...)
	for _, gamma := range []float64{1, 2, 3} {
		cfg := anomaly.Config{Gamma: gamma, AbsFilter: absFilterCPU}
		for _, src := range srcs {
			res.Rows = append(res.Rows, l.tally(src.method, gamma, src.alarms(cfg)))
		}
	}
	return res
}

// tally scores alarms[i], raised on the i-th fault execution, into a row.
func (l *Lab) tally(method string, gamma float64, alarms [][]anomaly.Alarm) Table5Row {
	var agg metrics.AlarmStats
	detected := 0
	for i, exec := range l.Corpus.FaultTargets {
		agg.Add(anomaly.Evaluate(alarms[i], exec.Series))
		detected += anomaly.DetectedEpisodes(alarms[i], exec.Series)
	}
	return Table5Row{
		Method: method, Gamma: gamma,
		Alarms: agg.Alarms, Correct: agg.Correct,
		AT: agg.AT(), AF: agg.AF(), Detected: detected,
	}
}

// scoredExec is one method's scores of one fault execution: predictions
// and actuals of timesteps offset…len-1, and the error model they are
// judged against (nil: the execution's own, §4.3).
type scoredExec struct {
	s            *dataset.Series
	pred, actual []float64
	offset       int
	em           *anomaly.ErrorModel
}

// source is one detection method's scores of every fault execution,
// computed once, so that each γ only re-runs anomaly.Detect.
type source struct {
	method string
	execs  []scoredExec
}

// score builds a method's source from its scores of each fault execution.
func (l *Lab) score(method string, one func(s *dataset.Series) scoredExec) source {
	src := source{method: method}
	for _, exec := range l.Corpus.FaultTargets {
		src.execs = append(src.execs, one(exec.Series))
	}
	return src
}

// alarms runs anomaly.Detect under cfg on every scored execution.
func (src source) alarms(cfg anomaly.Config) [][]anomaly.Alarm {
	out := make([][]anomaly.Alarm, len(src.execs))
	for i, e := range src.execs {
		out[i] = anomaly.Detect(src.method, e.s, e.pred, e.actual, e.offset, e.em, cfg)
	}
	return out
}

// table5Sources scores the fault executions with each Table 5 method
// against error models fitted on the chains' historical builds.
func (l *Lab) table5Sources() []source {
	ridge := func(method string, ts bool) source {
		return l.score(method, func(s *dataset.Series) scoredExec {
			cm := l.Chain(s.ChainID)
			m, em := cm.ridge, &cm.emRidge
			if ts {
				m, em = cm.ridgeTS, &cm.emRidgeTS
			}
			b := l.testBatch(s.ChainID)
			return scoredExec{s, m.Predict(b), b.Y.Data, l.Opts.Window, em}
		})
	}
	return []source{
		ridge("Ridge", false),
		ridge("Ridge_ts", true),
		l.score("RFNN_all", func(s *dataset.Series) scoredExec {
			p := l.RFNNAll()
			var hp, ha []float64
			for _, h := range l.history(s.ChainID) {
				php, pha := p.predictSeries(h, l.Opts.Window)
				hp = append(hp, php...)
				ha = append(ha, pha...)
			}
			em := anomaly.FitErrorModel(hp, ha)
			pred, actual := p.predictSeries(s, l.Opts.Window)
			return scoredExec{s, pred, actual, l.Opts.Window, &em}
		}),
		l.env2vecSource(l.Pooled(), true),
	}
}

// table6Sources scores the fault executions with the blind pooled models;
// every error model is the execution's own.
func (l *Lab) table6Sources() []source {
	return []source{
		l.score("RFNN_all", func(s *dataset.Series) scoredExec {
			pred, actual := l.RFNNAllBlind().predictSeries(s, l.Opts.Window)
			return scoredExec{s, pred, actual, l.Opts.Window, nil}
		}),
		l.env2vecSource(l.PooledBlind(), false),
	}
}

// env2vecSource scores the fault executions with tr through a Workflow,
// against each chain's error model calibrated on its history when
// calibrate is set, else against the execution's own.
func (l *Lab) env2vecSource(tr *pipeline.TrainResult, calibrate bool) source {
	wf := pipeline.NewWorkflow(tr, anomaly.Config{})
	return l.score("Env2Vec", func(s *dataset.Series) scoredExec {
		if calibrate {
			wf.CalibrateChain(s.ChainID, l.history(s.ChainID))
		}
		pred, actual, offset := wf.PredictSeries(s)
		var em *anomaly.ErrorModel
		if m, ok := wf.ErrorModel(s.ChainID); ok {
			em = &m
		}
		return scoredExec{s, pred, actual, offset, em}
	})
}

// htmAlarms streams each fault chain (history then current build) through
// the HTM-AD detector and alarms on the current build's scores.
func (l *Lab) htmAlarms() [][]anomaly.Alarm {
	var out [][]anomaly.Alarm
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
			flags[i] = d.Step(v) >= htm.Threshold
		}
		out = append(out, anomaly.MergeAlarms("htm-ad", s, flags, s.RU, 0, anomaly.MergeGap))
	}
	return out
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
	alarms := l.env2vecSource(l.Pooled(), true).alarms(anomaly.Config{Gamma: 1, AbsFilter: absFilterCPU})
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
	for i, exec := range l.Corpus.FaultTargets {
		st := anomaly.Evaluate(alarms[i], exec.Series)
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
