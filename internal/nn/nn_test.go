package nn

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"env2vec/internal/autodiff"
	"env2vec/internal/tensor"
)

func TestDenseForwardMatchesManual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 2, 3, Sigmoid, rng)
	d.W.Value = tensor.FromRows([][]float64{{1, 0, -1}, {0.5, 2, 1}})
	d.B.Value = tensor.FromRows([][]float64{{0.1, -0.2, 0.3}})
	x := tensor.FromRows([][]float64{{1, 2}})
	tape := autodiff.NewTape()
	out := d.Forward(tape, tape.Constant(x))
	sig := func(v float64) float64 { return 1 / (1 + math.Exp(-v)) }
	want := []float64{sig(1*1 + 2*0.5 + 0.1), sig(2*2 - 0.2), sig(-1 + 2 + 0.3)}
	for i, w := range want {
		if math.Abs(out.Value.Data[i]-w) > 1e-12 {
			t.Fatalf("elem %d: got %v want %v", i, out.Value.Data[i], w)
		}
	}
}

// TestGRUForwardMatchesManual hand-computes a single GRU step with known
// weights and verifies the layer reproduces it.
func TestGRUForwardMatchesManual(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := NewGRU("g", 2, rng)
	g.CandidateAct = Tanh
	set := func(p *Param, rows [][]float64) { p.Value = tensor.FromRows(rows) }
	set(g.Wz, [][]float64{{0.5, -0.5}})
	set(g.Uz, [][]float64{{0, 0}, {0, 0}})
	set(g.Bz, [][]float64{{0.1, 0.1}})
	set(g.Wr, [][]float64{{1, 1}})
	set(g.Ur, [][]float64{{0, 0}, {0, 0}})
	set(g.Br, [][]float64{{0, 0}})
	set(g.Wh, [][]float64{{2, -2}})
	set(g.Uh, [][]float64{{0, 0}, {0, 0}})
	set(g.Bh, [][]float64{{0, 0}})

	x := 0.3
	tape := autodiff.NewTape()
	out := g.ForwardWindow(tape, tape.Constant(tensor.FromRows([][]float64{{x}})))

	sig := func(v float64) float64 { return 1 / (1 + math.Exp(-v)) }
	// h0 = 0, so r has no effect and h1 = (1-z)*tanh(Wh*x) + z*0.
	z := []float64{sig(0.5*x + 0.1), sig(-0.5*x + 0.1)}
	hc := []float64{math.Tanh(2 * x), math.Tanh(-2 * x)}
	want := []float64{(1 - z[0]) * hc[0], (1 - z[1]) * hc[1]}
	for i, w := range want {
		if math.Abs(out.Value.Data[i]-w) > 1e-12 {
			t.Fatalf("hidden %d: got %v want %v", i, out.Value.Data[i], w)
		}
	}
}

func TestGRUEmptyStepsPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := NewGRU("g", 2, rng)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	tape := autodiff.NewTape()
	g.ForwardWindow(tape, tape.Constant(tensor.New(3, 0)))
}

func TestEmbeddingLookupAndUnknownClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := NewEmbedding("e", 3, 4, rng) // rows: unk + 3 vocab
	tape := autodiff.NewTape()
	out := e.Forward(tape, []int{1, 99, -5, UnknownIndex})
	if out.Value.Rows != 4 || out.Value.Cols != 4 {
		t.Fatalf("bad shape %dx%d", out.Value.Rows, out.Value.Cols)
	}
	unk := e.Table.Value.Row(UnknownIndex)
	for _, row := range []int{1, 2, 3} {
		for j := range unk {
			if out.Value.At(row, j) != unk[j] {
				t.Fatalf("row %d should be <unk> embedding", row)
			}
		}
	}
	for j := range unk {
		if out.Value.At(0, j) != e.Table.Value.At(1, j) {
			t.Fatalf("row 0 should be vocab id 1")
		}
	}
}

func TestAdamFitsLinearRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// y = 2*x0 - 3*x1 + 1
	n := 200
	x := tensor.New(n, 2)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y.Set(i, 0, 2*a-3*b+1)
	}
	m := NewMLP("m", 2, 8, Tanh, 0, rng)
	opt := NewAdam(0.01)
	batch := &Batch{X: x, Y: y}
	res := Train(m, opt, batch, nil, TrainConfig{Epochs: 300, BatchSize: 32, Seed: 1})
	mse := EvalMSE(m, batch)
	if mse > 0.01 {
		t.Fatalf("Adam failed to fit linear function: mse=%v after %d epochs", mse, res.Epochs)
	}
}

func TestSGDDecreasesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 100
	x := tensor.New(n, 3)
	x.RandNormal(rng, 1)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		y.Set(i, 0, x.At(i, 0)-x.At(i, 1))
	}
	m := NewMLP("m", 3, 4, ReLU, 0, rng)
	b := &Batch{X: x, Y: y}
	before := EvalMSE(m, b)
	Train(m, &SGD{LR: 0.05}, b, nil, TrainConfig{Epochs: 50, BatchSize: 20, Seed: 2})
	after := EvalMSE(m, b)
	if after >= before {
		t.Fatalf("SGD did not reduce loss: %v -> %v", before, after)
	}
}

func TestEarlyStoppingTriggersAndRestoresBest(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 60
	x := tensor.New(n, 2)
	x.RandNormal(rng, 1)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		y.Set(i, 0, x.At(i, 0))
	}
	train := &Batch{X: x.SliceRows(0, 40), Y: y.SliceRows(0, 40)}
	val := &Batch{X: x.SliceRows(40, 60), Y: y.SliceRows(40, 60)}
	m := NewMLP("m", 2, 4, Tanh, 0, rng)
	res := Train(m, NewAdam(0.05), train, val, TrainConfig{
		Epochs: 500, BatchSize: 16, Patience: 5, MinDelta: 1e-9, Seed: 3,
	})
	if res.Epochs >= 500 && !res.StoppedEarly {
		t.Logf("warning: never stopped early (epochs=%d)", res.Epochs)
	}
	got := EvalMSE(m, val)
	if math.Abs(got-res.FinalValLoss) > 1e-9 {
		t.Fatalf("best weights not restored: eval %v vs reported %v", got, res.FinalValLoss)
	}
	if !(res.BestValLoss <= res.FinalValLoss+1e-12) {
		t.Fatalf("best %v should be <= final %v", res.BestValLoss, res.FinalValLoss)
	}
}

func TestTrainDeterministicGivenSeed(t *testing.T) {
	build := func() float64 {
		rng := rand.New(rand.NewSource(9))
		n := 50
		x := tensor.New(n, 2)
		x.RandNormal(rng, 1)
		y := tensor.New(n, 1)
		for i := 0; i < n; i++ {
			y.Set(i, 0, x.At(i, 0)*x.At(i, 1))
		}
		m := NewMLP("m", 2, 6, Tanh, 0.2, rng)
		b := &Batch{X: x, Y: y}
		Train(m, NewAdam(0.01), b, nil, TrainConfig{Epochs: 20, BatchSize: 10, Seed: 4})
		return EvalMSE(m, b)
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("training not deterministic: %v vs %v", a, b)
	}
}

func TestDropoutMaskStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	if DropoutMask(rng, 10, 10, 0) != nil {
		t.Fatalf("rate 0 should return nil mask")
	}
	m := DropoutMask(rng, 100, 100, 0.3)
	kept := 0
	for _, v := range m.Data {
		if v != 0 && v != 1 {
			t.Fatalf("mask must be binary, got %v", v)
		}
		if v == 1 {
			kept++
		}
	}
	frac := float64(kept) / 10000
	if frac < 0.65 || frac > 0.75 {
		t.Fatalf("keep fraction %v far from 0.7", frac)
	}
}

func TestDropoutMaskPanicsOnRateOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	DropoutMask(rand.New(rand.NewSource(1)), 2, 2, 1.0)
}

func TestBatchSubset(t *testing.T) {
	b := &Batch{
		X:      tensor.FromRows([][]float64{{1}, {2}, {3}}),
		Window: tensor.FromRows([][]float64{{10}, {20}, {30}}),
		EnvIDs: [][]int{{7, 8, 9}},
		Y:      tensor.FromRows([][]float64{{0.1}, {0.2}, {0.3}}),
	}
	s := b.Subset([]int{2, 0})
	if s.Len() != 2 || s.X.At(0, 0) != 3 || s.X.At(1, 0) != 1 {
		t.Fatalf("X subset wrong: %v", s.X)
	}
	if s.Window.At(0, 0) != 30 || s.EnvIDs[0][0] != 9 || s.EnvIDs[0][1] != 7 {
		t.Fatalf("Window/EnvIDs subset wrong")
	}
	if s.Y.At(1, 0) != 0.1 {
		t.Fatalf("Y subset wrong")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewMLP("m", 3, 4, ReLU, 0, rng)
	snap := TakeSnapshot(m.Params(), map[string]string{"kind": "mlp"})
	data, err := snap.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(bytesReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Meta["kind"] != "mlp" {
		t.Fatalf("meta lost")
	}
	m2 := NewMLP("m", 3, 4, ReLU, 0, rand.New(rand.NewSource(99)))
	if err := decoded.Restore(m2.Params()); err != nil {
		t.Fatal(err)
	}
	for i, p := range m.Params() {
		if !tensor.Equal(p.Value, m2.Params()[i].Value, 0) {
			t.Fatalf("param %s not restored", p.Name)
		}
	}
}

func TestSnapshotRestoreErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := NewMLP("m", 2, 3, ReLU, 0, rng)
	snap := TakeSnapshot(m.Params(), nil)
	other := NewMLP("other", 2, 3, ReLU, 0, rng)
	if err := snap.Restore(other.Params()); err == nil {
		t.Fatalf("expected missing-name error")
	}
	bad := NewMLP("m", 2, 5, ReLU, 0, rng) // wrong hidden width
	if err := snap.Restore(bad.Params()); err == nil {
		t.Fatalf("expected shape error")
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := NewMLP("m", 2, 2, Tanh, 0, rng)
	path := t.TempDir() + "/model.gob"
	if err := TakeSnapshot(m.Params(), nil).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Restore(m.Params()); err != nil {
		t.Fatal(err)
	}
}

func TestClipScale(t *testing.T) {
	p := NewParam("p", 1, 2)
	tape := autodiff.NewTape()
	node := p.Bind(tape)
	node.Grad.Data[0] = 3
	node.Grad.Data[1] = 4 // norm 5
	if s := clipScale([]*Param{p}, 10); s != 1 {
		t.Fatalf("norm within clip should give scale 1, got %v", s)
	}
	if s := clipScale([]*Param{p}, 2.5); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("scale should be 0.5, got %v", s)
	}
	if s := clipScale([]*Param{p}, 0); s != 1 {
		t.Fatalf("disabled clipping should give 1")
	}
}

func TestActivationString(t *testing.T) {
	for a, want := range map[Activation]string{Linear: "linear", Sigmoid: "sigmoid", Tanh: "tanh", ReLU: "relu"} {
		if a.String() != want {
			t.Fatalf("String(%d) = %q", int(a), a.String())
		}
	}
}

// Property: a Snapshot round-trip through gob preserves every weight bitwise.
func TestSnapshotRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewParam("w", 1+rng.Intn(4), 1+rng.Intn(4))
		p.Value.RandNormal(rng, 2)
		snap := TakeSnapshot([]*Param{p}, nil)
		data, err := snap.Bytes()
		if err != nil {
			return false
		}
		dec, err := DecodeSnapshot(bytesReader(data))
		if err != nil {
			return false
		}
		q := NewParam("w", p.Value.Rows, p.Value.Cols)
		if err := dec.Restore([]*Param{q}); err != nil {
			return false
		}
		return tensor.Equal(p.Value, q.Value, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }

func TestLRDecayApplied(t *testing.T) {
	opt := NewAdam(0.1)
	rng := rand.New(rand.NewSource(20))
	n := 40
	x := tensor.New(n, 2)
	x.RandNormal(rng, 1)
	y := tensor.New(n, 1)
	m := NewMLP("m", 2, 4, Tanh, 0, rng)
	Train(m, opt, &Batch{X: x, Y: y}, nil, TrainConfig{Epochs: 10, BatchSize: 20, Seed: 1, LRDecay: 0.5})
	want := 0.1 * math.Pow(0.5, 10)
	if math.Abs(opt.LR-want) > 1e-12 {
		t.Fatalf("LR after decay %v, want %v", opt.LR, want)
	}
	sgd := &SGD{LR: 1}
	sgd.ScaleLR(0.25)
	if sgd.LR != 0.25 {
		t.Fatalf("SGD ScaleLR wrong")
	}
}
