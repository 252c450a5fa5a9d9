//go:build !amd64

package tensor

// Non-amd64 builds have no vector kernels: the drivers finish no column, so
// both GEMMs run matMulScalar throughout, and the logistic and the GRU
// elementwise kernels their Go loops.
var useAsm = false

func matMulAsm64(out, a, b []float64, m, k, n int) int { return 0 }

func matMulAsm32(out, a, b []float32, m, k, n int) int { return 0 }

func sigmoidAddAsm32(dst, a, b []float32) int { return 0 }

func sigmoidAddAsm64(dst, a, b []float64, step int) int { return 0 }

func addReLUAsm32(dst, a, b []float32) int { return 0 }

func gateMulAsm32(dst, zr, h []float32, width int) int { return 0 }

func gateBlendAsm32(h, zr, c []float32, width int) int { return 0 }
