// Package experiments reproduces every table and figure of the paper's
// evaluation (§4): the KDN model-accuracy comparison (Tables 3–4), the
// telecom build-chain characterization study (Figures 1, 3, 4), alarm
// quality (Table 5), embedding analysis (Figure 6), unseen environments
// (Table 6), coverage analysis (Table 7), and the training-cost discussion
// of §6. The cmd/kdnbench and cmd/telecombench binaries and the root bench
// suite are thin wrappers over this package.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"env2vec/internal/dataset"
	"env2vec/internal/nn"
	"env2vec/internal/stats"
	"env2vec/internal/tensor"
)

// MethodScore is one cell group of Table 4 / Figure 3: a method's errors on
// one dataset, averaged over seeds for the stochastic (neural) methods.
type MethodScore struct {
	Method string
	MAE    float64
	MAEStd float64 // 0 for deterministic methods
	MSE    float64
	MSEStd float64
	Runs   int
}

// String renders the score like the paper's table cells.
func (m MethodScore) String() string {
	if m.Runs > 1 {
		return fmt.Sprintf("%-9s MAE %6.2f ± %.2f   MSE %8.2f ± %.2f", m.Method, m.MAE, m.MAEStd, m.MSE, m.MSEStd)
	}
	return fmt.Sprintf("%-9s MAE %6.2f          MSE %8.2f", m.Method, m.MAE, m.MSE)
}

// aggregateScores averages per-seed (MAE, MSE) pairs into a MethodScore.
func aggregateScores(method string, maes, mses []float64) MethodScore {
	return MethodScore{
		Method: method,
		MAE:    stats.Mean(maes), MAEStd: stats.StdDev(maes),
		MSE: stats.Mean(mses), MSEStd: stats.StdDev(mses),
		Runs: len(maes),
	}
}

// YScaler aliases the dataset target scaler; see internal/dataset.
type YScaler = dataset.YScaler

// FitYScaler aliases dataset.FitYScaler.
var FitYScaler = dataset.FitYScaler

// evalScaled computes raw-unit MAE/MSE for a model trained on scaled
// targets.
func evalScaled(m nn.Model, ys YScaler, raw *nn.Batch) (mae, mse float64) {
	scaled := ys.Scale(raw)
	pred := ys.Unscale(m.Predict(scaled))
	var sa, sq float64
	for i, p := range pred {
		d := p - raw.Y.Data[i]
		sa += math.Abs(d)
		sq += d * d
	}
	n := float64(len(pred))
	return sa / n, sq / n
}

// concatBatches appends the examples of several batches (all must share the
// same feature/window/env shape).
func concatBatches(batches ...*nn.Batch) *nn.Batch {
	total := 0
	for _, b := range batches {
		total += b.Len()
	}
	if total == 0 {
		return &nn.Batch{X: tensor.New(0, 0), Y: tensor.New(0, 1)}
	}
	first := batches[0]
	out := &nn.Batch{X: tensor.New(total, first.X.Cols), Y: tensor.New(total, 1)}
	if first.Window != nil {
		out.Window = tensor.New(total, first.Window.Cols)
	}
	if first.EnvIDs != nil {
		out.EnvIDs = make([][]int, len(first.EnvIDs))
		for k := range out.EnvIDs {
			out.EnvIDs[k] = make([]int, 0, total)
		}
	}
	row := 0
	for _, b := range batches {
		for i := 0; i < b.Len(); i++ {
			copy(out.X.Row(row), b.X.Row(i))
			out.Y.Data[row] = b.Y.Data[i]
			if out.Window != nil {
				copy(out.Window.Row(row), b.Window.Row(i))
			}
			row++
		}
		if out.EnvIDs != nil {
			for k := range out.EnvIDs {
				out.EnvIDs[k] = append(out.EnvIDs[k], b.EnvIDs[k]...)
			}
		}
	}
	return out
}

// RenderTable renders rows of cells as an aligned ASCII table with a header.
func RenderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// fmtF renders a float with 3 decimals, or "N/A" for NaN.
func fmtF(v float64) string {
	if math.IsNaN(v) {
		return "N/A"
	}
	return fmt.Sprintf("%.3f", v)
}
