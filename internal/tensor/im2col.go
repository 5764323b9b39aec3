package tensor

// ConvOutSize returns the spatial output size of a convolution over an
// input of size in with the given kernel, stride and padding.
func ConvOutSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// ConvTransposeOutSize returns the spatial output size of a transposed
// convolution (the inverse of ConvOutSize).
func ConvTransposeOutSize(in, kernel, stride, pad int) int {
	return (in-1)*stride - 2*pad + kernel
}

// Im2col lowers one image x [C,H,W] into a matrix cols
// [C*k*k, outH*outW] so convolution becomes a single GEMM. cols must be
// pre-sized; out-of-bounds (padding) taps contribute zeros.
func Im2col(cols, x []float32, c, h, w, kernel, stride, pad int) {
	outHW := ConvOutSize(h, kernel, stride, pad) * ConvOutSize(w, kernel, stride, pad)
	Im2colStrided(cols, outHW, 0, x, c, h, w, kernel, stride, pad)
}

// Col2im scatters a column matrix cols [C*k*k, outH*outW] back into an
// image x [C,H,W], accumulating overlapping taps — the adjoint of
// Im2col, used for conv backward and transposed-conv forward. x is not
// cleared; callers zero it first when appropriate.
func Col2im(x, cols []float32, c, h, w, kernel, stride, pad int) {
	outHW := ConvOutSize(h, kernel, stride, pad) * ConvOutSize(w, kernel, stride, pad)
	Col2imStrided(x, cols, outHW, 0, c, h, w, kernel, stride, pad)
}
