//go:build !amd64

package tensor

// hasAVX2 is false off amd64: the portable kernel is the only one.
const hasAVX2 = false

func gemmMicro(_ bool, c []float32, ldc int, ap, bp []float32, kc int, load bool) {
	gemmMicroGo(c, ldc, ap, bp, kc, load)
}
