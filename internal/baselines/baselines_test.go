package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"env2vec/internal/nn"
	"env2vec/internal/tensor"
)

// linearBatch builds y = 3·x0 − 2·x1 + 0.5 + noise.
func linearBatch(rng *rand.Rand, n int, noise float64) *nn.Batch {
	x := tensor.New(n, 2)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y.Set(i, 0, 3*a-2*b+0.5+rng.NormFloat64()*noise)
	}
	return &nn.Batch{X: x, Y: y}
}

func TestRidgeRecoversLinearModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := linearBatch(rng, 500, 0.01)
	r := NewRidge(1e-6, false)
	if err := r.Fit(b); err != nil {
		t.Fatal(err)
	}
	w, c := r.Coefficients()
	if math.Abs(w[0]-3) > 0.02 || math.Abs(w[1]+2) > 0.02 || math.Abs(c-0.5) > 0.02 {
		t.Fatalf("coefficients wrong: w=%v c=%v", w, c)
	}
	if mse := batchMSE(r, b); mse > 0.01 {
		t.Fatalf("fit mse too high: %v", mse)
	}
}

func TestRidgeShrinkageWithLargeAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := linearBatch(rng, 200, 0.01)
	small := NewRidge(1e-6, false)
	big := NewRidge(1e6, false)
	if err := small.Fit(b); err != nil {
		t.Fatal(err)
	}
	if err := big.Fit(b); err != nil {
		t.Fatal(err)
	}
	ws, _ := small.Coefficients()
	wb, _ := big.Coefficients()
	if math.Abs(wb[0]) >= math.Abs(ws[0]) {
		t.Fatalf("large alpha should shrink weights: %v vs %v", wb, ws)
	}
}

func TestRidgeTSUsesWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// y depends only on the previous value (AR signal); plain Ridge on x
	// can't learn it, Ridge_ts can.
	n := 400
	x := tensor.New(n, 1)
	x.RandNormal(rng, 1)
	w := tensor.New(n, 2)
	y := tensor.New(n, 1)
	prev, prev2 := 0.3, 0.1
	for i := 0; i < n; i++ {
		cur := 0.9*prev + 0.05*rng.NormFloat64()
		w.Set(i, 0, prev2)
		w.Set(i, 1, prev)
		y.Set(i, 0, cur)
		prev2, prev = prev, cur
	}
	b := &nn.Batch{X: x, Window: w, Y: y}
	plain := NewRidge(0.001, false)
	ts := NewRidge(0.001, true)
	if err := plain.Fit(b); err != nil {
		t.Fatal(err)
	}
	if err := ts.Fit(b); err != nil {
		t.Fatal(err)
	}
	if batchMSE(ts, b) >= batchMSE(plain, b) {
		t.Fatalf("Ridge_ts should beat Ridge on AR data: %v vs %v", batchMSE(ts, b), batchMSE(plain, b))
	}
}

func TestRidgeErrorsAndPanics(t *testing.T) {
	r := NewRidge(1, false)
	if err := r.Fit(&nn.Batch{X: tensor.New(0, 2), Y: tensor.New(0, 1)}); err == nil {
		t.Fatalf("empty fit should error")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("predict before fit should panic")
			}
		}()
		NewRidge(1, false).Predict(&nn.Batch{X: tensor.New(1, 2), Y: tensor.New(1, 1)})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("Ridge_ts without window should panic")
			}
		}()
		r2 := NewRidge(1, true)
		_ = r2.Fit(&nn.Batch{X: tensor.New(2, 2), Y: tensor.New(2, 1)})
	}()
}

func TestFitRidgeCVPicksReasonableAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	train := linearBatch(rng, 300, 0.05)
	val := linearBatch(rng, 100, 0.05)
	m, err := FitRidgeCV(train, val, false)
	if err != nil {
		t.Fatal(err)
	}
	if mse := batchMSE(m, val); mse > 0.05 {
		t.Fatalf("CV ridge val mse %v", mse)
	}
}

func TestCholeskySolve(t *testing.T) {
	// A = [[4,2],[2,3]], b = [1, 2] → x = A⁻¹b = [-(1/8), 3/4].
	a := &tensor.Matrix{Rows: 2, Cols: 2, Data: []float64{4, 2, 2, 3}}
	x, err := solveSPD(a, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]+0.125) > 1e-10 || math.Abs(x[1]-0.75) > 1e-10 {
		t.Fatalf("solve wrong: %v", x)
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := &tensor.Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 2, 1}} // indefinite
	if _, ok := cholesky(a); ok {
		t.Fatalf("indefinite matrix should fail")
	}
	// solveSPD should recover by diagonal bumping only when it becomes PD;
	// [[0,0],[0,0]] becomes PD after bump.
	z := tensor.New(2, 2)
	if _, err := solveSPD(z, []float64{0, 0}); err != nil {
		t.Fatalf("zero matrix should solve after regularization: %v", err)
	}
}

// Property: solveSPD actually solves the system for random SPD matrices.
func TestSolveSPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := tensor.New(n, n)
		m.RandNormal(rng, 1)
		mt := tensor.New(n, n)
		m.TransposeInto(mt)
		a := tensor.New(n, n)
		tensor.MatMulBlockedInto(a, mt, m) // PSD
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1) // make PD
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := solveSPD(a.Clone(), b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += a.At(i, j) * x[j]
			}
			if math.Abs(s-b[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestForestFitsNonlinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 600
	x := tensor.New(n, 2)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y.Set(i, 0, a*b+math.Abs(a)) // nonlinear
	}
	b := &nn.Batch{X: x, Y: y}
	f := NewRandomForest(50, 8, 1)
	if err := f.Fit(b); err != nil {
		t.Fatal(err)
	}
	if mse := batchMSE(f, b); mse > 0.02 {
		t.Fatalf("forest training mse %v", mse)
	}
	// Linear ridge cannot fit this function nearly as well.
	r := NewRidge(0.001, false)
	if err := r.Fit(b); err != nil {
		t.Fatal(err)
	}
	if batchMSE(f, b) >= batchMSE(r, b) {
		t.Fatalf("forest should beat ridge on nonlinear data")
	}
}

func TestForestDepthLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := linearBatch(rng, 200, 0.1)
	shallow := NewRandomForest(10, 1, 1)
	deep := NewRandomForest(10, 8, 1)
	if err := shallow.Fit(b); err != nil {
		t.Fatal(err)
	}
	if err := deep.Fit(b); err != nil {
		t.Fatal(err)
	}
	if batchMSE(deep, b) >= batchMSE(shallow, b) {
		t.Fatalf("deeper forest should fit training data better")
	}
	maxDepth := func(n *cartNode) int {
		var rec func(*cartNode) int
		rec = func(n *cartNode) int {
			if n.isLeaf() {
				return 0
			}
			l, r := rec(n.left), rec(n.right)
			if r > l {
				l = r
			}
			return 1 + l
		}
		return rec(n)
	}
	for _, tr := range shallow.trees {
		if d := maxDepth(tr); d > 1 {
			t.Fatalf("depth limit violated: %d", d)
		}
	}
}

func TestForestDeterministicAndErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := linearBatch(rng, 100, 0.1)
	f1 := NewRandomForest(5, 4, 9)
	f2 := NewRandomForest(5, 4, 9)
	if err := f1.Fit(b); err != nil {
		t.Fatal(err)
	}
	if err := f2.Fit(b); err != nil {
		t.Fatal(err)
	}
	p1, p2 := f1.Predict(b), f2.Predict(b)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("same seed should give identical forests")
		}
	}
	if err := NewRandomForest(5, 4, 1).Fit(&nn.Batch{X: tensor.New(0, 1), Y: tensor.New(0, 1)}); err == nil {
		t.Fatalf("empty fit should error")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("predict before fit should panic")
			}
		}()
		NewRandomForest(5, 4, 1).Predict(b)
	}()
}

func TestFitForestCV(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	train := linearBatch(rng, 200, 0.1)
	val := linearBatch(rng, 80, 0.1)
	m, err := FitForestCV(train, val, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mse := batchMSE(m, val); mse > 1.5 {
		t.Fatalf("forest CV val mse %v", mse)
	}
	if _, err := FitForestCV(train, val, 5, 1); err == nil {
		t.Fatalf("empty grid should error")
	}
}

// fitForestCVRef is the grid search that fits all 24 forests from scratch,
// kept as the oracle for FitForestCV's one-forest search.
func fitForestCVRef(train, val *nn.Batch, maxEstimators int, seed int64) (*RandomForest, error) {
	depths := []int{3, 4, 5, 6, 7, 8, 9, 10}
	ests := []int{10, 50, 100, 1000}
	var best *RandomForest
	bestMSE := math.Inf(1)
	for _, d := range depths {
		for _, e := range ests {
			if e > maxEstimators {
				continue
			}
			m := NewRandomForest(e, d, seed)
			if err := m.Fit(train); err != nil {
				return nil, err
			}
			mse := batchMSE(m, val)
			if mse < bestMSE {
				bestMSE = mse
				best = m
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("baselines: empty forest grid (maxEstimators=%d)", maxEstimators)
	}
	return best, nil
}

// tiedBatch builds y from three small-integer features: most rows share
// their feature values with many others, and deep nodes run out of rows.
func tiedBatch(rng *rand.Rand, n int) *nn.Batch {
	x := tensor.New(n, 3)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		a, b, c := float64(rng.Intn(4)), float64(rng.Intn(3)), float64(rng.Intn(6))
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		x.Set(i, 2, c)
		y.Set(i, 0, a*b-c+float64(rng.Intn(3)))
	}
	return &nn.Batch{X: x, Y: y}
}

// TestFitForestCVMatchesGridOfFits pins the nesting FitForestCV relies on:
// the first e trees of one forest, walked at most d levels, predict every
// bit the forest fitted for (e, d) does, so the one-fit search returns the
// winner of the 24-fit search with the same predictions.
func TestFitForestCVMatchesGridOfFits(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, c := range []struct {
		name string
		gen  func(n int) *nn.Batch
	}{
		{"linear", func(n int) *nn.Batch { return linearBatch(rng, n, 0.3) }},
		{"tied", func(n int) *nn.Batch { return tiedBatch(rng, n) }},
	} {
		train, val, test := c.gen(150), c.gen(60), c.gen(60)
		const seed = 3
		sameBits := func(what string, got, want []float64) {
			t.Helper()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s %s: row %d predicts %v, want %v", c.name, what, i, got[i], want[i])
				}
			}
		}
		full := NewRandomForest(100, 10, seed)
		if err := full.Fit(train); err != nil {
			t.Fatal(err)
		}
		for _, e := range []int{10, 50, 100} {
			for d := 3; d <= 10; d++ {
				fresh := NewRandomForest(e, d, seed)
				if err := fresh.Fit(train); err != nil {
					t.Fatal(err)
				}
				view := &RandomForest{NEstimators: e, MaxDepth: d, Seed: seed, trees: full.trees[:e]}
				sameBits(fmt.Sprintf("view (%d, %d)", e, d), view.Predict(test), fresh.Predict(test))
			}
		}
		for _, maxE := range []int{10, 50, 100} {
			got, err := FitForestCV(train, val, maxE, seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fitForestCVRef(train, val, maxE, seed)
			if err != nil {
				t.Fatal(err)
			}
			if got.NEstimators != want.NEstimators || got.MaxDepth != want.MaxDepth {
				t.Fatalf("%s maxEstimators %d: winner (%d, %d), want (%d, %d)",
					c.name, maxE, got.NEstimators, got.MaxDepth, want.NEstimators, want.MaxDepth)
			}
			held := 0 // tree pointers the winner's backing array keeps alive
			for _, tr := range got.trees[:cap(got.trees)] {
				if tr != nil {
					held++
				}
			}
			if len(got.trees) != got.NEstimators || held != got.NEstimators {
				t.Fatalf("%s maxEstimators %d: winner of %d trees holds %d, want %d",
					c.name, maxE, len(got.trees), held, got.NEstimators)
			}
			sameBits(fmt.Sprintf("winner at maxEstimators %d", maxE), got.Predict(test), want.Predict(test))
		}
	}
}

func TestSVRFitsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	train := linearBatch(rng, 200, 0.05)
	test := linearBatch(rng, 80, 0.05)
	s := NewSVR(0.01, 0.1, KernelLinear)
	if err := s.Fit(train); err != nil {
		t.Fatal(err)
	}
	mse := batchMSE(s, test)
	// Targets have variance ≈ 13; anything ≪ variance means it learned.
	if mse > 1.5 {
		t.Fatalf("linear SVR test mse %v", mse)
	}
}

func TestSVRRBFFitsNonlinear(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 250
	x := tensor.New(n, 1)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		v := rng.Float64()*4 - 2
		x.Set(i, 0, v)
		y.Set(i, 0, math.Sin(2*v))
	}
	b := &nn.Batch{X: x, Y: y}
	s := NewSVR(0.01, 0.05, KernelRBF)
	s.Gamma = 2
	if err := s.Fit(b); err != nil {
		t.Fatal(err)
	}
	if mse := batchMSE(s, b); mse > 0.1 {
		t.Fatalf("rbf SVR mse %v", mse)
	}
	lin := NewSVR(0.01, 0.05, KernelLinear)
	if err := lin.Fit(b); err != nil {
		t.Fatal(err)
	}
	if batchMSE(s, b) >= batchMSE(lin, b) {
		t.Fatalf("rbf should beat linear on sin data")
	}
}

func TestSVRErrorsAndStrings(t *testing.T) {
	if err := NewSVR(1, 0.1, KernelRBF).Fit(&nn.Batch{X: tensor.New(0, 1), Y: tensor.New(0, 1)}); err == nil {
		t.Fatalf("empty fit should error")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("predict before fit should panic")
			}
		}()
		NewSVR(1, 0.1, KernelRBF).Predict(&nn.Batch{X: tensor.New(1, 1), Y: tensor.New(1, 1)})
	}()
	if KernelLinear.String() != "linear" || KernelPoly.String() != "poly" || KernelRBF.String() != "rbf" {
		t.Fatalf("kernel strings wrong")
	}
}

func TestRFNNLearnsARPlusFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 400
	x := tensor.New(n, 2)
	w := tensor.New(n, 2)
	y := tensor.New(n, 1)
	prev, prev2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		f0, f1 := rng.NormFloat64(), rng.NormFloat64()
		cur := 0.5*prev + 0.7*f0 - 0.3*f1 + 0.02*rng.NormFloat64()
		x.Set(i, 0, f0)
		x.Set(i, 1, f1)
		w.Set(i, 0, prev2)
		w.Set(i, 1, prev)
		y.Set(i, 0, cur)
		prev2, prev = prev, cur
	}
	b := &nn.Batch{X: x, Window: w, Y: y}
	m := NewRFNN(RFNNConfig{In: 2, Hidden: 16, GRUHidden: 8, DenseDim: 8, Seed: 1})
	nn.Train(m, nn.NewAdam(0.01), b, nil, nn.TrainConfig{Epochs: 60, BatchSize: 32, Seed: 1})
	if mse := nn.EvalMSE(m, b); mse > 0.05 {
		t.Fatalf("RFNN mse %v", mse)
	}
}

func TestRFNNRequiresWindow(t *testing.T) {
	m := NewRFNN(RFNNConfig{In: 2, Hidden: 4, GRUHidden: 2, DenseDim: 4, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	m.Predict(&nn.Batch{X: tensor.New(1, 2), Y: tensor.New(1, 1)})
}

func TestRFNNParamCount(t *testing.T) {
	m := NewRFNN(RFNNConfig{In: 3, Hidden: 4, GRUHidden: 2, DenseDim: 5, Seed: 1})
	// MLP hidden W+b and out W+b (unused out head still counted), GRU 9,
	// dense W+b, out W+b.
	if got := len(m.Params()); got != 17 {
		t.Fatalf("param groups = %d, want 17", got)
	}
}
