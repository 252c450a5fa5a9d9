package pipeline

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"env2vec/internal/anomaly"
	"env2vec/internal/core"
	"env2vec/internal/dataset"
	"env2vec/internal/modelserver"
	"env2vec/internal/telecom"
	"env2vec/internal/tsdb"
)

func smallCorpus(t *testing.T) *telecom.Corpus {
	t.Helper()
	return telecom.Generate(telecom.SmallConfig())
}

// quickTrainerConfig keeps unit-test training fast.
func quickTrainerConfig() TrainerConfig {
	cfg := DefaultTrainerConfig(telecom.NumFeatures)
	cfg.Model.Hidden = 16
	cfg.Model.GRUHidden = 8
	cfg.Model.EmbedDim = 4
	cfg.Model.Window = 3
	cfg.Train.Epochs = 4
	cfg.Train.BatchSize = 64
	return cfg
}

func TestExporterServesCurrentStep(t *testing.T) {
	c := smallCorpus(t)
	s := c.Dataset.Series[0]
	e, err := NewExporter(s, c.Dataset.FeatureNames)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(e)
	defer srv.Close()

	get := func() string {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	first := get()
	if !strings.Contains(first, "cpu_usage") || !strings.Contains(first, "demand_mbps") {
		t.Fatalf("exposition missing metrics: %s", first)
	}
	if !e.Advance() {
		t.Fatalf("Advance failed")
	}
	if e.Pos() != 1 {
		t.Fatalf("Pos = %d", e.Pos())
	}
	second := get()
	if first == second {
		t.Fatalf("advancing should change the served values")
	}
	// Exhausting the series.
	for e.Advance() {
	}
	if e.Pos() != s.Len()-1 {
		t.Fatalf("final pos %d", e.Pos())
	}
	// Bad path → 404.
	resp, _ := http.Get(srv.URL + "/other")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bad path status %d", resp.StatusCode)
	}
}

func TestNewExporterValidates(t *testing.T) {
	c := smallCorpus(t)
	s := c.Dataset.Series[0]
	if _, err := NewExporter(s, []string{"too", "few"}); err == nil {
		t.Fatalf("wrong feature-name count should error")
	}
}

func TestTrainMasksExcludedSeries(t *testing.T) {
	c := smallCorpus(t)
	exclude := map[*dataset.Series]bool{}
	for _, exec := range c.FaultTargets {
		exclude[exec.Series] = true
	}
	cfg := quickTrainerConfig()
	tr, err := Train(c.Dataset, exclude, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := c.Dataset.NumExamples(cfg.Model.Window)
	var excluded int
	for _, exec := range c.FaultTargets {
		excluded += exec.Series.Len() - cfg.Model.Window
	}
	if tr.Examples != total-excluded {
		t.Fatalf("masking wrong: %d examples, want %d", tr.Examples, total-excluded)
	}
	if tr.Model == nil || tr.Schema == nil || tr.Standardizer == nil {
		t.Fatalf("missing artifacts")
	}
}

func TestTrainErrorsWhenEverythingMasked(t *testing.T) {
	c := smallCorpus(t)
	exclude := map[*dataset.Series]bool{}
	for _, s := range c.Dataset.Series {
		exclude[s] = true
	}
	if _, err := Train(c.Dataset, exclude, quickTrainerConfig()); err == nil {
		t.Fatalf("all-masked training should error")
	}
}

func TestWorkflowDetectsInjectedFault(t *testing.T) {
	c := smallCorpus(t)
	exclude := map[*dataset.Series]bool{}
	for _, exec := range c.FaultTargets {
		exclude[exec.Series] = true
	}
	cfg := quickTrainerConfig()
	cfg.Train.Epochs = 12
	tr, err := Train(c.Dataset, exclude, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wf := NewWorkflow(tr, anomaly.Config{Gamma: 2, AbsFilter: 5})
	// Calibrate chains on their historical builds.
	for _, id := range c.ChainOrder {
		chain := c.ChainSeries[id]
		wf.CalibrateChain(id, chain[:len(chain)-1])
	}
	if _, ok := wf.ErrorModel(c.ChainOrder[0]); !ok {
		t.Fatalf("calibration missing")
	}
	totalAlarms, correct := 0, 0
	for _, exec := range c.FaultTargets {
		alarms := wf.ProcessExecution("env2vec", exec.Series)
		st := anomaly.Evaluate(alarms, exec.Series)
		totalAlarms += st.Alarms
		correct += st.Correct
	}
	if totalAlarms == 0 {
		t.Fatalf("no alarms raised on faulty executions")
	}
	if correct == 0 {
		t.Fatalf("no correct alarms among %d", totalAlarms)
	}
}

func TestWorkflowUnseenChainUsesSelfCalibration(t *testing.T) {
	c := smallCorpus(t)
	tr, err := Train(c.Dataset, nil, quickTrainerConfig())
	if err != nil {
		t.Fatal(err)
	}
	wf := NewWorkflow(tr, anomaly.Config{Gamma: 3})
	// No CalibrateChain call: must fall back to the self distribution.
	s := c.FaultTargets[0].Series
	alarms := wf.ProcessExecution("env2vec", s)
	for _, a := range alarms {
		if a.ChainID != s.ChainID {
			t.Fatalf("alarm chain wrong: %+v", a)
		}
	}
}

func TestPublishFetchModelRoundTrip(t *testing.T) {
	c := smallCorpus(t)
	cfg := quickTrainerConfig()
	tr, err := Train(c.Dataset, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := modelserver.NewRegistry()
	srv := httptest.NewServer(&modelserver.Handler{Registry: reg})
	defer srv.Close()
	client := &modelserver.Client{BaseURL: srv.URL}
	ver, err := PublishModel(client, "env2vec", tr)
	if err != nil || ver != 1 {
		t.Fatalf("publish: %d %v", ver, err)
	}
	into := core.New(cfg.Model, tr.Schema)
	ver2, err := FetchModel(client, "env2vec", into)
	if err != nil || ver2 != 1 {
		t.Fatalf("fetch: %d %v", ver2, err)
	}
	// Restored model predicts identically.
	s := c.Dataset.Series[0]
	exs := dataset.WindowExamples(s, cfg.Model.Window)
	b := dataset.ToBatch(exs, tr.Schema)
	tr.Standardizer.Apply(b.X)
	p1, p2 := tr.Model.Predict(b), into.Predict(b)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("fetched model differs at %d", i)
		}
	}
}

func TestSeriesFromTSDBAndScrapeLoop(t *testing.T) {
	c := smallCorpus(t)
	src := c.Dataset.Series[0]
	exporter, err := NewExporter(src, c.Dataset.FeatureNames)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(exporter)
	defer srv.Close()

	dir := t.TempDir()
	sd := filepath.Join(dir, "sd.json")
	target := strings.TrimPrefix(srv.URL, "http://")
	if err := tsdb.AppendSDTarget(sd, target, map[string]string{"env": "EM_0"}); err != nil {
		t.Fatal(err)
	}
	db := tsdb.New()
	scraper := tsdb.NewScraper(db, sd, time.Second)

	// Scrape every timestep of the execution (workflow step 1).
	steps := 10
	for i := 0; i < steps; i++ {
		if _, err := scraper.ScrapeOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		if !exporter.Advance() {
			break
		}
	}
	rebuilt, err := SeriesFromTSDB(db, "EM_0", src.Env, c.Dataset.FeatureNames, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Len() != steps {
		t.Fatalf("rebuilt %d steps, want %d", rebuilt.Len(), steps)
	}
	for i := 0; i < rebuilt.Len(); i++ {
		if rebuilt.RU[i] != src.RU[i] {
			t.Fatalf("RU mismatch at %d: %v vs %v", i, rebuilt.RU[i], src.RU[i])
		}
		for j := 0; j < rebuilt.CF.Cols; j++ {
			if rebuilt.CF.At(i, j) != src.CF.At(i, j) {
				t.Fatalf("CF mismatch at %d,%d", i, j)
			}
		}
	}
	if rebuilt.ChainID != src.ChainID {
		t.Fatalf("chain id wrong: %q", rebuilt.ChainID)
	}
}

func TestIncrementalTrainImprovesUnseenChain(t *testing.T) {
	c := smallCorpus(t)
	// Blind out one chain entirely.
	blindChain := c.FaultTargets[0].Series.ChainID
	exclude := map[*dataset.Series]bool{}
	for _, s := range c.Dataset.Series {
		if s.ChainID == blindChain {
			exclude[s] = true
		}
	}
	cfg := quickTrainerConfig()
	cfg.Train.Epochs = 8
	tr, err := Train(c.Dataset, exclude, cfg)
	if err != nil {
		t.Fatal(err)
	}
	chain := c.ChainSeries[blindChain]
	history := chain[:len(chain)-1]
	current := chain[len(chain)-1]

	evalMAE := func() float64 {
		exs := dataset.WindowExamples(current, cfg.Model.Window)
		b := dataset.ToBatch(exs, tr.Schema)
		tr.Standardizer.Apply(b.X)
		pred := tr.YScale.Unscale(tr.Model.Predict(tr.YScale.Scale(b)))
		mae := 0.0
		for i, p := range pred {
			d := p - exs[i].Y
			if d < 0 {
				d = -d
			}
			mae += d
		}
		return mae / float64(len(pred))
	}
	before := evalMAE()
	beforeExamples := tr.Examples
	fit, err := IncrementalTrain(tr, history, 8, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Epochs == 0 {
		t.Fatalf("incremental training did not run")
	}
	if tr.Examples <= beforeExamples {
		t.Fatalf("example count not updated")
	}
	after := evalMAE()
	if after >= before {
		t.Fatalf("incremental retraining should improve the blinded chain: %.3f -> %.3f", before, after)
	}
}

func TestEarlyTerminationPolicy(t *testing.T) {
	alarms := []anomaly.Alarm{
		{StartIdx: 5, EndIdx: 6, PeakDev: 3},    // too weak
		{StartIdx: 20, EndIdx: 29, PeakDev: 12}, // qualifies
		{StartIdx: 40, EndIdx: 49, PeakDev: 15}, // qualifies, later
	}
	p := TerminationPolicy{MinPeakDev: 10, MinDuration: 3}
	at, ok := EarlyTerminationStep(alarms, p)
	if !ok || at != 22 {
		t.Fatalf("termination at %d (ok=%v), want 22", at, ok)
	}
	if _, ok := EarlyTerminationStep(alarms[:1], p); ok {
		t.Fatalf("weak alarm should not terminate")
	}
	if _, ok := EarlyTerminationStep(nil, p); ok {
		t.Fatalf("no alarms should not terminate")
	}
	// MinDuration 1 terminates at the alarm start.
	at, ok = EarlyTerminationStep(alarms, TerminationPolicy{MinPeakDev: 10, MinDuration: 1})
	if !ok || at != 20 {
		t.Fatalf("immediate policy: got %d", at)
	}
}

func TestIncrementalTrainNoExamples(t *testing.T) {
	c := smallCorpus(t)
	tr, err := Train(c.Dataset, nil, quickTrainerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := IncrementalTrain(tr, nil, 2, 0.01); err == nil {
		t.Fatalf("no-example incremental training should error")
	}
}

func TestSeriesFromTSDBMissingMetric(t *testing.T) {
	db := tsdb.New()
	_ = db.Append(tsdb.Labels{"__name__": "cpu_usage", "env": "EM_9"}, 1, 50)
	c := smallCorpus(t)
	if _, err := SeriesFromTSDB(db, "EM_9", c.Dataset.Series[0].Env, c.Dataset.FeatureNames, 0, 1<<62); err == nil {
		t.Fatalf("missing feature metrics should error")
	}
	if _, err := SeriesFromTSDB(db, "EM_none", c.Dataset.Series[0].Env, nil, 0, 1<<62); err == nil {
		t.Fatalf("missing cpu metric should error")
	}
}

func TestProcessExecutionWithPolicy(t *testing.T) {
	c := smallCorpus(t)
	exclude := map[*dataset.Series]bool{}
	for _, exec := range c.FaultTargets {
		exclude[exec.Series] = true
	}
	cfg := quickTrainerConfig()
	cfg.Train.Epochs = 10
	tr, err := Train(c.Dataset, exclude, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wf := NewWorkflow(tr, anomaly.Config{Gamma: 2, AbsFilter: 5})
	for _, id := range c.ChainOrder {
		chain := c.ChainSeries[id]
		wf.CalibrateChain(id, chain[:len(chain)-1])
	}
	s := c.FaultTargets[0].Series
	full := wf.ProcessExecution("env2vec", s)
	if len(full) == 0 {
		t.Skip("no alarms on this execution at quick scale")
	}
	// A permissive policy terminates at the first alarm's start.
	alarms, stopAt, terminated := wf.ProcessExecutionWithPolicy("env2vec", s, TerminationPolicy{MinPeakDev: 0, MinDuration: 1})
	if !terminated || stopAt != full[0].StartIdx {
		t.Fatalf("termination at %d (%v), want %d", stopAt, terminated, full[0].StartIdx)
	}
	for _, a := range alarms {
		if a.StartIdx > stopAt || a.EndIdx > stopAt {
			t.Fatalf("alarm extends past termination: %+v", a)
		}
	}
	// An impossible policy never terminates and returns everything.
	all, stopAt2, term2 := wf.ProcessExecutionWithPolicy("env2vec", s, TerminationPolicy{MinPeakDev: 1e9, MinDuration: 1})
	if term2 || stopAt2 != -1 || len(all) != len(full) {
		t.Fatalf("impossible policy should be a no-op")
	}
}

// TestIncrementalTrainDivergedRestores drives a fit that overflows — a
// learning rate of 1e160; at 1e6 the saturating gates hold the loss at a
// finite 1e30 on this corpus — and holds IncrementalTrain to its promise:
// a typed error, the loss it saw still reported, and the model the Workflow
// scores with left exactly as it was, not full of NaN.
func TestIncrementalTrainDivergedRestores(t *testing.T) {
	c := smallCorpus(t)
	tr, err := Train(c.Dataset, nil, quickTrainerConfig())
	if err != nil {
		t.Fatal(err)
	}
	var before [][]float64
	for _, p := range tr.Model.Params() {
		before = append(before, append([]float64(nil), p.Value.Data...))
	}
	examples := tr.Examples
	fit, err := IncrementalTrain(tr, c.Dataset.Series[:2], 4, 1e160)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged (last loss %v)", err, fit.TrainLossLast)
	}
	if !math.IsNaN(fit.TrainLossLast) && !math.IsInf(fit.TrainLossLast, 0) {
		t.Fatalf("TrainLossLast = %v, want the non-finite loss the fit ended on", fit.TrainLossLast)
	}
	if tr.Examples != examples {
		t.Fatalf("a fit that was rolled back counted its examples: %d -> %d", examples, tr.Examples)
	}
	for pi, p := range tr.Model.Params() {
		for i, v := range p.Value.Data {
			if math.Float64bits(v) != math.Float64bits(before[pi][i]) {
				t.Fatalf("%s[%d] = %v after a diverged fit, was %v", p.Name, i, v, before[pi][i])
			}
		}
	}
}
