package nn

import (
	"math"
	"math/rand"
	"testing"

	"env2vec/internal/autodiff"
	"env2vec/internal/tensor"
)

// TestWindowGradientFlow is the regression test for the severed-window bug:
// ForwardWindow used to wrap each window column in a tape constant, which
// silently zeroed every gradient flowing into the window producer. The
// recurrence node scatters its window gradient back, so a window bound as a
// tape parameter must receive gradients that match central finite
// differences.
func TestWindowGradientFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gru := NewGRU("g", 3, rng)
	for _, p := range []*Param{gru.Bz, gru.Br, gru.Bh} {
		p.Value.RandNormal(rng, 0.1)
	}
	window := tensor.New(4, 3)
	window.RandNormal(rng, 1)
	target := tensor.New(4, 3)
	target.RandNormal(rng, 1)

	variants := []struct {
		name    string
		forward func(tape *autodiff.Tape, w *autodiff.Node) *autodiff.Node
	}{
		{"ForwardWindow", func(tape *autodiff.Tape, w *autodiff.Node) *autodiff.Node {
			return gru.ForwardWindow(tape, w)
		}},
		{"ForwardWindowAll", func(tape *autodiff.Tape, w *autodiff.Node) *autodiff.Node {
			states := gru.ForwardWindowAll(tape, w)
			out := states[0]
			for _, s := range states[1:] {
				out = tape.Add(out, s)
			}
			return out
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			loss := func() float64 {
				tape := autodiff.NewTape()
				return tape.MSE(v.forward(tape, tape.Param(window)), target).Value.Data[0]
			}

			tape := autodiff.NewTape()
			w := tape.Param(window)
			tape.Backward(tape.MSE(v.forward(tape, w), target))
			if w.Grad == nil {
				t.Fatalf("window received no gradient")
			}
			grad := append([]float64(nil), w.Grad.Data...)

			nonzero := false
			const h = 1e-6
			for i := range window.Data {
				orig := window.Data[i]
				window.Data[i] = orig + h
				up := loss()
				window.Data[i] = orig - h
				down := loss()
				window.Data[i] = orig
				numeric := (up - down) / (2 * h)
				if numeric != 0 {
					nonzero = true
				}
				if math.Abs(grad[i]-numeric) > 1e-4*(1+math.Abs(numeric)) {
					t.Fatalf("window elem %d: analytic %g vs numeric %g", i, grad[i], numeric)
				}
			}
			if !nonzero {
				t.Fatalf("degenerate test: loss is flat in the window")
			}
		})
	}
}
