package tensor

import "cachebox/internal/obs"

// Im2colStrided is Im2col writing into a wide batched matrix: row r of
// the per-sample column matrix lands at cols[r*colStride+colOffset ...].
// This lets a whole batch share one matrix of shape
// [C*k*k, N*outHW] (colStride = N*outHW, colOffset = n*outHW), so the
// convolution of the entire batch is a single large GEMM — the
// mechanism behind CacheBox's batched-inference speedup. Every conv
// layer windows through here, so this is where the tensor.im2col leaf
// span is emitted, once per image.
func Im2colStrided(cols []float32, colStride, colOffset int, x []float32, c, h, w, kernel, stride, pad int) {
	l := obs.StartLeaf("tensor.im2col")
	defer l.End()
	outH := ConvOutSize(h, kernel, stride, pad)
	outW := ConvOutSize(w, kernel, stride, pad)
	row := 0
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for ky := 0; ky < kernel; ky++ {
			for kx := 0; kx < kernel; kx++ {
				dst := cols[row*colStride+colOffset:][:outH*outW]
				i := 0
				for oy := 0; oy < outH; oy++ {
					sy := oy*stride - pad + ky
					if sy < 0 || sy >= h {
						for ox := 0; ox < outW; ox++ {
							dst[i] = 0
							i++
						}
						continue
					}
					srow := x[base+sy*w : base+(sy+1)*w]
					for ox := 0; ox < outW; ox++ {
						sx := ox*stride - pad + kx
						if sx < 0 || sx >= w {
							dst[i] = 0
						} else {
							dst[i] = srow[sx]
						}
						i++
					}
				}
				row++
			}
		}
	}
}

// Col2imStrided is the adjoint of Im2colStrided: it scatters one
// sample's columns out of a wide batched matrix back into image x,
// accumulating overlaps. x is not cleared first. It emits the
// tensor.col2im leaf span, once per image.
func Col2imStrided(x, cols []float32, colStride, colOffset int, c, h, w, kernel, stride, pad int) {
	l := obs.StartLeaf("tensor.col2im")
	defer l.End()
	outH := ConvOutSize(h, kernel, stride, pad)
	outW := ConvOutSize(w, kernel, stride, pad)
	row := 0
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for ky := 0; ky < kernel; ky++ {
			for kx := 0; kx < kernel; kx++ {
				src := cols[row*colStride+colOffset:][:outH*outW]
				i := 0
				for oy := 0; oy < outH; oy++ {
					sy := oy*stride - pad + ky
					if sy < 0 || sy >= h {
						i += outW
						continue
					}
					xrow := x[base+sy*w : base+(sy+1)*w]
					for ox := 0; ox < outW; ox++ {
						sx := ox*stride - pad + kx
						if sx >= 0 && sx < w {
							xrow[sx] += src[i]
						}
						i++
					}
				}
				row++
			}
		}
	}
}
