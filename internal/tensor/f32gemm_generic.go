//go:build !amd64

package tensor

// Non-amd64 builds have no vector kernels; the float32 GEMM always runs the
// portable scalar blocking and the logistic its scalar twin.
var f32UseAsm = false

func matMulAsm32(out, a, b []float32, m, k, n, ostride, ooff int) {
	matMulScalar32(out, a, b, m, k, n, ostride, ooff)
}

func sigmoidAddAsm32(dst, a, b []float32) int { return 0 }
