// Package dataset provides the data plumbing between generators
// (internal/kdn, internal/telecom), the environment schema, and model
// batches: contextual time series as defined in §1 of the paper, sliding
// RU-history windows, feature standardization, train/val/test splits, and
// CSV import/export.
package dataset

import (
	"fmt"
	"math"

	"env2vec/internal/envmeta"
	"env2vec/internal/nn"
	"env2vec/internal/tensor"
)

// Series is one test execution: the contextual time series of a single
// build in a build chain (Appendix A). CF rows align with RU values.
type Series struct {
	Env        envmeta.Environment
	ChainID    string // testbed|sut|testcase key identifying the build chain
	BuildIndex int    // position within the chain (0 = oldest build)
	Times      []int64
	CF         *tensor.Matrix // steps×features contextual features
	RU         []float64      // steps resource-usage targets
	Anomalous  []bool         // ground-truth anomaly labels; nil when unlabeled
}

// Len returns the number of timesteps in the series.
func (s *Series) Len() int { return len(s.RU) }

// Validate checks internal consistency.
func (s *Series) Validate() error {
	if s.CF.Rows != len(s.RU) {
		return fmt.Errorf("dataset: series %s CF rows %d != RU len %d", s.Env, s.CF.Rows, len(s.RU))
	}
	if len(s.Times) != 0 && len(s.Times) != len(s.RU) {
		return fmt.Errorf("dataset: series %s times len %d != RU len %d", s.Env, len(s.Times), len(s.RU))
	}
	if s.Anomalous != nil && len(s.Anomalous) != len(s.RU) {
		return fmt.Errorf("dataset: series %s labels len %d != RU len %d", s.Env, len(s.Anomalous), len(s.RU))
	}
	return nil
}

// Dataset is a collection of series sharing a contextual-feature schema.
type Dataset struct {
	FeatureNames []string
	Series       []*Series
}

// Example is one supervised instance assembled from a series.
type Example struct {
	Env       envmeta.Environment
	ChainID   string
	Time      int64
	CF        []float64
	Window    []float64 // previous `window` RU values, oldest first
	Y         float64
	Anomalous bool
}

// WindowExamples slides a window of length window over the series, emitting
// one example per timestep p ∈ [window, len).
func WindowExamples(s *Series, window int) []Example {
	if window < 0 {
		panic(fmt.Sprintf("dataset: negative window %d", window))
	}
	n := s.Len()
	if n <= window {
		return nil
	}
	out := make([]Example, 0, n-window)
	for p := window; p < n; p++ {
		ex := Example{
			Env:     s.Env,
			ChainID: s.ChainID,
			CF:      append([]float64(nil), s.CF.Row(p)...),
			Y:       s.RU[p],
		}
		if window > 0 {
			ex.Window = append([]float64(nil), s.RU[p-window:p]...)
		}
		if len(s.Times) == n {
			ex.Time = s.Times[p]
		}
		if s.Anomalous != nil {
			ex.Anomalous = s.Anomalous[p]
		}
		out = append(out, ex)
	}
	return out
}

// ToBatch converts examples to an nn.Batch, encoding environments through
// the schema (without growing it). Window and EnvIDs are omitted when,
// respectively, the examples carry no window or schema is nil.
func ToBatch(examples []Example, schema *envmeta.Schema) *nn.Batch {
	if len(examples) == 0 {
		return &nn.Batch{X: tensor.New(0, 0), Y: tensor.New(0, 1)}
	}
	f := len(examples[0].CF)
	w := len(examples[0].Window)
	b := &nn.Batch{X: tensor.New(len(examples), f), Y: tensor.New(len(examples), 1)}
	if w > 0 {
		b.Window = tensor.New(len(examples), w)
	}
	if schema != nil {
		b.EnvIDs = make([][]int, envmeta.NumFeatures)
		for k := range b.EnvIDs {
			b.EnvIDs[k] = make([]int, len(examples))
		}
	}
	for i, ex := range examples {
		if len(ex.CF) != f {
			panic(fmt.Sprintf("dataset: example %d has %d features, want %d", i, len(ex.CF), f))
		}
		copy(b.X.Row(i), ex.CF)
		b.Y.Data[i] = ex.Y
		if w > 0 {
			if len(ex.Window) != w {
				panic(fmt.Sprintf("dataset: example %d has window %d, want %d", i, len(ex.Window), w))
			}
			copy(b.Window.Row(i), ex.Window)
		}
		if schema != nil {
			ids := schema.Encode(ex.Env)
			for k := range b.EnvIDs {
				b.EnvIDs[k][i] = ids[k]
			}
		}
	}
	return b
}

// WindowBatch is ToBatch over the WindowExamples of every series in turn,
// built straight from the series: the feature rows, targets and windows are
// copied once, into the batch, and the environment is encoded once a series.
// Series no longer than window contribute nothing; when none is longer, the
// batch is ToBatch's empty one.
func WindowBatch(series []*Series, window int, schema *envmeta.Schema) *nn.Batch {
	if window < 0 {
		panic(fmt.Sprintf("dataset: negative window %d", window))
	}
	rows, f := 0, 0
	for _, s := range series {
		if n := s.Len() - window; n > 0 {
			if rows > 0 && s.CF.Cols != f {
				panic(fmt.Sprintf("dataset: series %s has %d features, want %d", s.Env, s.CF.Cols, f))
			}
			rows, f = rows+n, s.CF.Cols
		}
	}
	if rows == 0 {
		return ToBatch(nil, schema)
	}
	b := &nn.Batch{X: tensor.New(rows, f), Y: tensor.New(rows, 1)}
	if window > 0 {
		b.Window = tensor.New(rows, window)
	}
	if schema != nil {
		b.EnvIDs = make([][]int, envmeta.NumFeatures)
		ids := make([]int, envmeta.NumFeatures*rows)
		for k := range b.EnvIDs {
			b.EnvIDs[k] = ids[k*rows : (k+1)*rows : (k+1)*rows]
		}
	}
	i := 0
	for _, s := range series {
		n := s.Len() - window
		if n <= 0 {
			continue
		}
		copy(b.X.Data[i*f:], s.CF.Data[window*f:s.Len()*f])
		copy(b.Y.Data[i:], s.RU[window:])
		for r := 0; r < n && window > 0; r++ {
			copy(b.Window.Row(i+r), s.RU[r:r+window])
		}
		if schema != nil {
			enc := schema.Encode(s.Env)
			for k, ids := range b.EnvIDs {
				for r := range ids[i : i+n] {
					ids[i+r] = enc[k]
				}
			}
		}
		i += n
	}
	return b
}

// Standardizer scales features to zero mean and unit variance using
// statistics from the training set only (the usual leakage-free protocol).
type Standardizer struct {
	Mean, Std []float64
}

// FitStandardizer computes per-column statistics of x. Columns with zero
// variance get Std 1 so they pass through unchanged after centering.
func FitStandardizer(x *tensor.Matrix) *Standardizer {
	s := &Standardizer{Mean: make([]float64, x.Cols), Std: make([]float64, x.Cols)}
	n := float64(x.Rows)
	if n == 0 {
		for j := range s.Std {
			s.Std[j] = 1
		}
		return s
	}
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] == 0 {
			s.Std[j] = 1
		}
	}
	return s
}

// Apply standardizes x in place.
func (s *Standardizer) Apply(x *tensor.Matrix) {
	if x.Cols != len(s.Mean) {
		panic(fmt.Sprintf("dataset: standardizer fitted on %d cols, got %d", len(s.Mean), x.Cols))
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = (row[j] - s.Mean[j]) / s.Std[j]
		}
	}
}

// Split holds the three standard partitions as ready model batches.
type Split struct {
	Train, Val, Test *nn.Batch
}

// SplitExamples partitions examples by count into train/val/test in order
// (time-respecting, as the paper treats the latest build as test data).
func SplitExamples(examples []Example, nTrain, nVal, nTest int, schema *envmeta.Schema) (*Split, error) {
	if nTrain+nVal+nTest > len(examples) {
		return nil, fmt.Errorf("dataset: split %d+%d+%d exceeds %d examples", nTrain, nVal, nTest, len(examples))
	}
	return &Split{
		Train: ToBatch(examples[:nTrain], schema),
		Val:   ToBatch(examples[nTrain:nTrain+nVal], schema),
		Test:  ToBatch(examples[nTrain+nVal:nTrain+nVal+nTest], schema),
	}, nil
}

// StandardizeSplit fits on the training features and applies the same
// transform to all three partitions, returning the fitted standardizer.
func StandardizeSplit(s *Split) *Standardizer {
	std := FitStandardizer(s.Train.X)
	std.Apply(s.Train.X)
	if s.Val != nil && s.Val.Len() > 0 {
		std.Apply(s.Val.X)
	}
	if s.Test != nil && s.Test.Len() > 0 {
		std.Apply(s.Test.X)
	}
	return std
}
