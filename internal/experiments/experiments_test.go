package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"env2vec/internal/nn"
	"env2vec/internal/tensor"
)

// sharedQuickLab amortizes the quick-mode lab across tests.
var (
	qlOnce sync.Once
	ql     *Lab
)

func quickLab() *Lab {
	qlOnce.Do(func() { ql = NewLab(QuickTelecomOptions()) })
	return ql
}

// quickTable4 runs the quick KDN study once for every test that reads it.
var quickTable4 = sync.OnceValues(func() (*Table4Result, error) { return RunTable4(QuickTable4Options()) })

func TestTable3Content(t *testing.T) {
	out := Table3()
	for _, want := range []string{"1359", "1191", "755", "900", "259", "141", "100", "200", "150"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 3 missing %q:\n%s", want, out)
		}
	}
}

func TestRunTable4Quick(t *testing.T) {
	res, err := quickTable4()
	if err != nil {
		t.Fatal(err)
	}
	for _, vnf := range []string{"snort", "firewall", "switch"} {
		scores := res.Scores[vnf]
		methods := map[string]bool{}
		for _, s := range scores {
			methods[s.Method] = true
			if s.MAE <= 0 || s.MSE <= 0 || math.IsNaN(s.MAE) {
				t.Fatalf("%s/%s: bad scores %+v", vnf, s.Method, s)
			}
			if s.MSE < s.MAE*s.MAE-1e-9 {
				t.Fatalf("%s/%s: MSE < MAE² impossible", vnf, s.Method)
			}
		}
		for _, m := range []string{"Ridge", "Ridge_ts", "RFReg", "FNN", "RFNN", "RFNN_all", "Env2Vec"} {
			if !methods[m] {
				t.Fatalf("%s missing method %s", vnf, m)
			}
		}
		if methods["SVR"] {
			t.Fatalf("quick options should skip SVR")
		}
		p, ok := res.PairedP[vnf]
		if !ok || p < 0 || p > 1 {
			t.Fatalf("%s: bad paired p %v", vnf, p)
		}
	}
	rendered := RenderTable4(res)
	if !strings.Contains(rendered, "Env2Vec") || !strings.Contains(rendered, "Snort MAE") {
		t.Fatalf("render incomplete:\n%s", rendered)
	}
}

func TestMethodScoreString(t *testing.T) {
	s := MethodScore{Method: "X", MAE: 1.5, MSE: 3.25, Runs: 1}
	if !strings.Contains(s.String(), "1.50") {
		t.Fatalf("String = %q", s.String())
	}
	multi := MethodScore{Method: "Y", MAE: 1, MAEStd: 0.1, MSE: 2, MSEStd: 0.2, Runs: 3}
	if !strings.Contains(multi.String(), "±") {
		t.Fatalf("multi-run String should carry std: %q", multi.String())
	}
}

func TestConcatBatches(t *testing.T) {
	a := &nn.Batch{
		X:      tensor.FromRows([][]float64{{1, 2}}),
		Window: tensor.FromRows([][]float64{{9}}),
		EnvIDs: [][]int{{1}, {2}, {3}, {4}},
		Y:      tensor.FromRows([][]float64{{0.5}}),
	}
	b := &nn.Batch{
		X:      tensor.FromRows([][]float64{{3, 4}, {5, 6}}),
		Window: tensor.FromRows([][]float64{{8}, {7}}),
		EnvIDs: [][]int{{5, 6}, {7, 8}, {9, 10}, {11, 12}},
		Y:      tensor.FromRows([][]float64{{0.6}, {0.7}}),
	}
	c := concatBatches(a, b)
	if c.Len() != 3 || c.X.At(2, 1) != 6 || c.Window.At(1, 0) != 8 {
		t.Fatalf("concat wrong: %+v", c)
	}
	if c.EnvIDs[0][0] != 1 || c.EnvIDs[0][2] != 6 || c.Y.Data[2] != 0.7 {
		t.Fatalf("env/y concat wrong")
	}
	empty := concatBatches()
	if empty.Len() != 0 {
		t.Fatalf("empty concat should be empty")
	}
}

func TestRenderTableAlignment(t *testing.T) {
	out := RenderTable([]string{"a", "bb"}, [][]string{{"xxx", "y"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected header+sep+row, got %d lines", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("separator misaligned")
	}
}

func TestFmtF(t *testing.T) {
	if fmtF(math.NaN()) != "N/A" || fmtF(0.5) != "0.500" {
		t.Fatalf("fmtF wrong")
	}
}

func TestLabFigure1(t *testing.T) {
	res := quickLab().RunFigure1()
	if len(res.ChainIDs) != quickLab().Opts.Corpus.Chains {
		t.Fatalf("chain count wrong")
	}
	if res.Weights.Rows != len(res.FeatureNames) || res.Weights.Cols != len(res.ChainIDs) {
		t.Fatalf("heatmap shape wrong")
	}
	if res.Weights.MaxAbs() == 0 {
		t.Fatalf("all-zero heatmap")
	}
	for _, id := range res.ChainIDs {
		bx, ok := res.Residuals[id]
		if !ok {
			t.Fatalf("missing residuals for %s", id)
		}
		if bx.Min > bx.Median || bx.Median > bx.Max {
			t.Fatalf("boxplot not ordered: %+v", bx)
		}
	}
}

func TestLabFigure34(t *testing.T) {
	res := quickLab().RunFigure34()
	nChains := quickLab().Opts.Corpus.Chains
	for _, m := range []string{"Ridge", "Ridge_ts", "RFNN", "RFNN_all", "Env2Vec"} {
		byChain, ok := res.PerChainMAE[m]
		if !ok || len(byChain) != nChains {
			t.Fatalf("method %s missing chains: %d", m, len(byChain))
		}
		sum, ok := res.Summary[m]
		if !ok || sum.MAE <= 0 {
			t.Fatalf("summary %s wrong: %+v", m, sum)
		}
	}
	if len(res.ImprovementEnv2Vec) != nChains || len(res.ImprovementRFNNAll) != nChains {
		t.Fatalf("improvement lengths wrong")
	}
	// Improvements are sorted.
	for i := 1; i < len(res.ImprovementEnv2Vec); i++ {
		if res.ImprovementEnv2Vec[i] < res.ImprovementEnv2Vec[i-1] {
			t.Fatalf("improvements not sorted")
		}
	}
	cdf := Figure4CDF(res)
	for m, pts := range cdf {
		if len(pts) != nChains {
			t.Fatalf("cdf %s wrong length", m)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i][0] < pts[i-1][0] || pts[i][1] < pts[i-1][1] {
				t.Fatalf("cdf %s not monotone", m)
			}
		}
		if math.Abs(pts[len(pts)-1][1]-1) > 1e-12 {
			t.Fatalf("cdf %s does not reach 1", m)
		}
	}
}

func TestLabTable5(t *testing.T) {
	res := quickLab().RunTable5()
	if res.TrueProblems <= 0 {
		t.Fatalf("no ground-truth problems")
	}
	// 1 HTM row + 4 methods × 3 gammas.
	if len(res.Rows) != 1+4*3 {
		t.Fatalf("row count %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Correct > r.Alarms {
			t.Fatalf("correct > alarms: %+v", r)
		}
		if r.Alarms > 0 {
			if math.Abs(r.AT+r.AF-1) > 1e-9 {
				t.Fatalf("A_T+A_F != 1: %+v", r)
			}
		}
	}
	out := RenderTable5(res)
	if !strings.Contains(out, "HTM-AD") || !strings.Contains(out, "ground-truth") {
		t.Fatalf("render incomplete")
	}
}

func TestLabTable6(t *testing.T) {
	res := quickLab().RunTable6()
	// HTM + 2 N/A ridge rows + 2 methods × 3 gammas.
	if len(res.Rows) != 3+2*3 {
		t.Fatalf("row count %d", len(res.Rows))
	}
	foundNA := 0
	for _, r := range res.Rows {
		if (r.Method == "Ridge" || r.Method == "Ridge_ts") && math.IsNaN(r.AT) {
			foundNA++
		}
		if r.Method == "Ridge" && r.Alarms != 0 {
			t.Fatalf("ridge must be N/A in unseen environments")
		}
	}
	if foundNA != 2 {
		t.Fatalf("expected 2 N/A rows, got %d", foundNA)
	}
	if !strings.Contains(RenderTable5(res), "N/A") {
		t.Fatalf("render should show N/A")
	}
}

func TestLabFigure6(t *testing.T) {
	res, err := quickLab().RunFigure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatalf("no points")
	}
	types := map[string]bool{}
	for _, p := range res.Points {
		if p.BuildType == "" {
			t.Fatalf("missing build type for %v", p.Env)
		}
		types[p.BuildType] = true
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			t.Fatalf("NaN projection")
		}
	}
	if len(types) < 2 {
		t.Fatalf("expected multiple build types, got %v", types)
	}
	if len(res.Explained) != 2 {
		t.Fatalf("explained variance missing")
	}
}

func TestLabTable7(t *testing.T) {
	res := quickLab().RunTable7()
	if len(res.Rows) != len(quickLab().Corpus.FaultTargets) {
		t.Fatalf("row count %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.TestbedExamples < 0 || r.CoveragePct < 0 || r.CoveragePct > 100 {
			t.Fatalf("bad coverage: %+v", r)
		}
	}
	// Rows sorted worst-first.
	for i := 1; i < len(res.Rows); i++ {
		if less(res.Rows[i].AT, res.Rows[i-1].AT) {
			t.Fatalf("rows not sorted by A_T")
		}
	}
}

func TestLabCostReport(t *testing.T) {
	cost, err := quickLab().RunCostReport()
	if err != nil {
		t.Fatal(err)
	}
	if cost.ModelBytes <= 0 || cost.ModelBytes > 10*1024*1024 {
		t.Fatalf("model size %d violates the <10MB claim", cost.ModelBytes)
	}
	if cost.Parameters <= 0 || cost.PooledTrainSeconds <= 0 {
		t.Fatalf("bad cost report: %+v", cost)
	}
	if cost.RidgeSecondsPerChain >= 1 {
		t.Fatalf("ridge should train in <1s per chain (§6), took %v", cost.RidgeSecondsPerChain)
	}
}

func TestSymlog(t *testing.T) {
	if symlog(0) != 0 {
		t.Fatalf("symlog(0) != 0")
	}
	if symlog(-3) != -symlog(3) {
		t.Fatalf("symlog not odd")
	}
	if symlog(100) <= symlog(10) {
		t.Fatalf("symlog not monotone")
	}
}

func TestLessNaNOrdering(t *testing.T) {
	if !less(math.NaN(), 1) {
		t.Fatalf("NaN should sort first")
	}
	if less(1, math.NaN()) {
		t.Fatalf("number should not sort before NaN")
	}
	if !less(1, 2) || less(2, 1) {
		t.Fatalf("numeric ordering wrong")
	}
}
