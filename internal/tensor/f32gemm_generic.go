//go:build !amd64

package tensor

// Non-amd64 builds have no vector kernels: the drivers finish no column, so
// both GEMMs run matMulScalar (and MatMulTAddInto matMulTScalar) throughout,
// and the logistic, the GRU elementwise kernels and the training step's
// their Go loops.
var useAsm = false

func matMulAsm64(out, a, b []float64, m, k, n, ars, aks int, add bool) int { return 0 }

func matMulAsm32(out, a, b []float32, m, k, n int) int { return 0 }

func sigmoidAddAsm32(dst, a, b []float32) int { return 0 }

func sigmoidAddAsm64(dst, a, b []float64, step int) int { return 0 }

func addReLUAsm32(dst, a, b []float32) int { return 0 }

func addReLUAsm64(dst, a, b []float64) int { return 0 }

func gateMulAsm32(dst, zr, h []float32, width int) int { return 0 }

func gateMulAsm64(dst, zr, h []float64, width int) int { return 0 }

func gateBlendAsm32(h, zr, c []float32, width int) int { return 0 }

func gateBlendAsm64(h, zr, c []float64, width int) int { return 0 }

func reluAsm64(dst, x []float64) int { return 0 }

func gruBackUpdateAsm64(dhp, dz, dc, dh, zr, hp, c, pre []float64, width int) int { return 0 }

func gruBackResetAsm64(dhp, dr, drh, zr, hp []float64, width int) int { return 0 }

func colSumAsm64(acc, m []float64) int { return 0 }

func adamAsm64(p, g, m, v []float64, c *AdamCoef) int { return 0 }
