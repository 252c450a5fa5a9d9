//go:build !amd64

package tensor

// Non-amd64 builds have no vector kernels; both GEMMs always run the
// portable scalar blocking and the logistic its scalar twin.
var useAsm = false

func matMulAsm64(out, a, b []float64, m, k, n, ostride, ooff int) int { return 0 }

func matMulAsm32(out, a, b []float32, m, k, n, ostride, ooff int) {
	matMulScalar32(out, a, b, m, k, n, ostride, ooff)
}

func sigmoidAddAsm32(dst, a, b []float32) int { return 0 }
