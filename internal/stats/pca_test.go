package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"env2vec/internal/tensor"
)

func TestPCARecoversDominantDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Data spread mostly along (1,1)/√2, small noise orthogonal.
	n := 400
	x := tensor.New(n, 2)
	for i := 0; i < n; i++ {
		major := rng.NormFloat64() * 5
		minor := rng.NormFloat64() * 0.3
		x.Set(i, 0, major/math.Sqrt2-minor/math.Sqrt2+10)
		x.Set(i, 1, major/math.Sqrt2+minor/math.Sqrt2-4)
	}
	p, err := FitPCA(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	axis := p.Components.Row(0)
	// First axis should be ±(1,1)/√2.
	if math.Abs(math.Abs(axis[0])-1/math.Sqrt2) > 0.02 || math.Abs(math.Abs(axis[1])-1/math.Sqrt2) > 0.02 {
		t.Fatalf("dominant axis wrong: %v", axis)
	}
	if p.Explained[0] < 0.95 {
		t.Fatalf("first component should explain most variance: %v", p.Explained)
	}
	if math.Abs(p.Mean[0]-10) > 0.5 || math.Abs(p.Mean[1]+4) > 0.5 {
		t.Fatalf("mean wrong: %v", p.Mean)
	}
}

func TestPCATransformCentersData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(50, 3)
	x.RandNormal(rng, 2)
	p, err := FitPCA(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	proj := p.Transform(x)
	if proj.Rows != 50 || proj.Cols != 2 {
		t.Fatalf("bad projection shape")
	}
	// Projections of centered data have (near) zero mean.
	for c := 0; c < 2; c++ {
		s := 0.0
		for i := 0; i < proj.Rows; i++ {
			s += proj.At(i, c)
		}
		if math.Abs(s/50) > 1e-10 {
			t.Fatalf("projection not centered: %v", s/50)
		}
	}
}

func TestPCAComponentsOrthonormal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 10+rng.Intn(30), 2+rng.Intn(5)
		x := tensor.New(n, d)
		x.RandNormal(rng, 1)
		k := 1 + rng.Intn(d)
		p, err := FitPCA(x, k)
		if err != nil {
			return false
		}
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				dot := 0.0
				for j := 0; j < d; j++ {
					dot += p.Components.At(a, j) * p.Components.At(b, j)
				}
				want := 0.0
				if a == b {
					want = 1
				}
				if math.Abs(dot-want) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPCAExplainedVarianceSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(100, 4)
	x.RandNormal(rng, 1)
	p, err := FitPCA(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, e := range p.Explained {
		if e < 0 || e > 1 {
			t.Fatalf("explained fraction out of range: %v", p.Explained)
		}
		sum += e
	}
	if math.Abs(sum-1) > 1e-8 {
		t.Fatalf("explained fractions should sum to 1 with k=d: %v", sum)
	}
	// Descending order.
	for i := 1; i < len(p.Explained); i++ {
		if p.Explained[i] > p.Explained[i-1]+1e-12 {
			t.Fatalf("explained not sorted: %v", p.Explained)
		}
	}
}

func TestPCAErrors(t *testing.T) {
	x := tensor.New(1, 3)
	if _, err := FitPCA(x, 1); err == nil {
		t.Fatalf("n<2 should error")
	}
	y := tensor.New(5, 3)
	if _, err := FitPCA(y, 0); err == nil {
		t.Fatalf("k=0 should error")
	}
	if _, err := FitPCA(y, 4); err == nil {
		t.Fatalf("k>d should error")
	}
}

func TestPCATransformDimPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(10, 3)
	x.RandNormal(rng, 1)
	p, err := FitPCA(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for wrong input dim")
		}
	}()
	p.Transform(tensor.New(2, 5))
}

func TestJacobiEigenOnKnownMatrix(t *testing.T) {
	// Symmetric matrix [[2,1],[1,2]] has eigenvalues 3 and 1.
	m := &tensor.Matrix{Rows: 2, Cols: 2, Data: []float64{2, 1, 1, 2}}
	vals, vecs := jacobiEigen(m)
	got := append([]float64(nil), vals...)
	if got[0] > got[1] {
		got[0], got[1] = got[1], got[0]
	}
	if math.Abs(got[0]-1) > 1e-9 || math.Abs(got[1]-3) > 1e-9 {
		t.Fatalf("eigenvalues wrong: %v", vals)
	}
	// Verify A·v = λ·v for each column.
	for c := 0; c < 2; c++ {
		v0, v1 := vecs.At(0, c), vecs.At(1, c)
		av0 := 2*v0 + v1
		av1 := v0 + 2*v1
		l := vals[c]
		if math.Abs(av0-l*v0) > 1e-9 || math.Abs(av1-l*v1) > 1e-9 {
			t.Fatalf("eigenpair %d fails A·v=λ·v", c)
		}
	}
}
