package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"env2vec/internal/nn"
	"env2vec/internal/tensor"
)

// RandomForest is a bagged ensemble of CART regression trees, the RFReg
// baseline of §4.1.3. Hyper-parameters follow the paper's grid: MaxDepth
// {3..10} and NEstimators {10,50,100,1000}. As in scikit-learn's regressor,
// every split considers every feature.
type RandomForest struct {
	NEstimators int
	MaxDepth    int
	Seed        int64

	trees []*cartNode
}

// minLeaf is the minimum number of samples on each side of a split.
const minLeaf = 2

// NewRandomForest returns an unfitted forest.
func NewRandomForest(nEstimators, maxDepth int, seed int64) *RandomForest {
	return &RandomForest{NEstimators: nEstimators, MaxDepth: maxDepth, Seed: seed}
}

// cartNode is one node of a regression tree.
type cartNode struct {
	feature     int
	threshold   float64
	value       float64
	left, right *cartNode
}

func (n *cartNode) isLeaf() bool { return n.left == nil }

// Fit trains the ensemble on bootstrap resamples of the batch. A tree takes
// nothing from the generator but its bootstrap draw, so the first e trees of
// a forest are the forest of e trees with the same seed.
func (f *RandomForest) Fit(b *nn.Batch) error {
	if b.Len() == 0 {
		return fmt.Errorf("baselines: forest fit on empty batch")
	}
	rng := rand.New(rand.NewSource(f.Seed))
	f.trees = make([]*cartNode, f.NEstimators)
	n := b.Len()
	for t := range f.trees {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		f.trees[t] = buildTree(b.X, b.Y, idx, f.MaxDepth)
	}
	return nil
}

// Predict implements Predictor by averaging tree outputs, each tree walked at
// most MaxDepth levels.
func (f *RandomForest) Predict(b *nn.Batch) []float64 {
	if f.trees == nil {
		panic("baselines: RandomForest.Predict before Fit")
	}
	out := make([]float64, b.Len())
	for i := range out {
		row := b.X.Row(i)
		s := 0.0
		for _, tr := range f.trees {
			s += predictTree(tr, row, f.MaxDepth)
		}
		out[i] = s / float64(len(f.trees))
	}
	return out
}

func predictTree(n *cartNode, row []float64, maxDepth int) float64 {
	for ; maxDepth > 0 && !n.isLeaf(); maxDepth-- {
		if row[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// buildTree grows a CART regression tree by variance-reduction splitting.
// Every node holds its mean before it tries a split, so cutting a tree at
// depth d gives the tree grown with depth d.
func buildTree(x, y *tensor.Matrix, idx []int, depth int) *cartNode {
	node := &cartNode{value: meanAt(y, idx)}
	if depth <= 0 || len(idx) < 2*minLeaf {
		return node
	}
	bestGain := 0.0
	bestFeature, bestThreshold := -1, 0.0
	baseSSE := sseAt(y, idx, node.value)

	vals := make([]float64, len(idx))
	order := make([]int, len(idx))
	for fi := 0; fi < x.Cols; fi++ {
		for k, i := range idx {
			vals[k] = x.At(i, fi)
			order[k] = k
		}
		sort.Slice(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })
		// Prefix sums over the sorted order for O(n) split evaluation.
		var sumL, sumSqL float64
		sumR, sumSqR := 0.0, 0.0
		for _, k := range order {
			v := y.Data[idx[k]]
			sumR += v
			sumSqR += v * v
		}
		nl, nr := 0, len(idx)
		for pos := 0; pos < len(order)-1; pos++ {
			k := order[pos]
			v := y.Data[idx[k]]
			sumL += v
			sumSqL += v * v
			sumR -= v
			sumSqR -= v * v
			nl++
			nr--
			if vals[order[pos]] == vals[order[pos+1]] {
				continue // cannot split between equal values
			}
			if nl < minLeaf || nr < minLeaf {
				continue
			}
			sseL := sumSqL - sumL*sumL/float64(nl)
			sseR := sumSqR - sumR*sumR/float64(nr)
			gain := baseSSE - (sseL + sseR)
			if gain > bestGain {
				bestGain = gain
				bestFeature = fi
				bestThreshold = (vals[order[pos]] + vals[order[pos+1]]) / 2
			}
		}
	}
	if bestFeature < 0 {
		return node
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if x.At(i, bestFeature) <= bestThreshold {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return node
	}
	node.feature = bestFeature
	node.threshold = bestThreshold
	node.left = buildTree(x, y, leftIdx, depth-1)
	node.right = buildTree(x, y, rightIdx, depth-1)
	return node
}

func meanAt(y *tensor.Matrix, idx []int) float64 {
	s := 0.0
	for _, i := range idx {
		s += y.Data[i]
	}
	return s / float64(len(idx))
}

func sseAt(y *tensor.Matrix, idx []int, mean float64) float64 {
	s := 0.0
	for _, i := range idx {
		d := y.Data[i] - mean
		s += d * d
	}
	return s
}

// FitForestCV searches the paper's hyper-parameter grid (max_depth 3..10,
// n_estimators {10,50,100,1000}) on the validation set. The estimator grid
// is capped at maxEstimators to keep harness runtimes sane; pass 1000 to
// match the paper exactly. One forest is fitted, with the most estimators
// and the deepest depth; every cell is scored on its first e trees walked
// at most d levels, which is bit for bit the forest fitted for that cell.
func FitForestCV(train, val *nn.Batch, maxEstimators int, seed int64) (*RandomForest, error) {
	depths := []int{3, 4, 5, 6, 7, 8, 9, 10}
	ests := []int{10, 50, 100, 1000}
	maxE := 0
	for _, e := range ests {
		if e <= maxEstimators {
			maxE = e
		}
	}
	full := NewRandomForest(maxE, depths[len(depths)-1], seed)
	if maxE > 0 {
		if err := full.Fit(train); err != nil {
			return nil, err
		}
	}
	var best *RandomForest
	bestMSE := math.Inf(1)
	for _, d := range depths {
		for _, e := range ests {
			if e > maxEstimators {
				continue
			}
			m := &RandomForest{NEstimators: e, MaxDepth: d, Seed: seed, trees: full.trees[:e]}
			if mse := batchMSE(m, val); mse < bestMSE {
				bestMSE = mse
				best = m
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("baselines: empty forest grid (maxEstimators=%d)", maxEstimators)
	}
	best.trees = append([]*cartNode(nil), best.trees...) // frees the other trees
	return best, nil
}
