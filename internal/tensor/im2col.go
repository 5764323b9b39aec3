package tensor

import "cachebox/internal/obs"

// ConvOutSize returns the spatial output size of a convolution over an
// input of size in with the given kernel, stride and padding: the
// number of kernel positions that fit in the padded input, which is 0
// when the kernel is wider than it.
func ConvOutSize(in, kernel, stride, pad int) int {
	span := in + 2*pad - kernel
	if span < 0 {
		return 0
	}
	return span/stride + 1
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

// Pad copies the planes of x [planes, h, w] into xp
// [planes, h+2·pad, w+2·pad] with a zero border of pad on every side:
// the source Im2colOperand gathers from, so no tap of the convolution
// tests a bound.
func Pad(xp, x []float32, planes, h, w, pad int) {
	hp, wp := h+2*pad, w+2*pad
	if planes < 0 || h < 0 || w < 0 || pad < 0 || len(x) < planes*h*w || len(xp) < planes*hp*wp {
		mustValidShape(false, "tensor: Pad %d planes of %dx%d by %d from %d into %d elements",
			planes, h, w, pad, len(x), len(xp))
	}
	for pl := 0; pl < planes; pl++ {
		dst := xp[pl*hp*wp : (pl+1)*hp*wp]
		src := x[pl*h*w : (pl+1)*h*w]
		clear(dst[:pad*wp+pad])
		for y := 0; y < h; y++ {
			row := dst[(pad+y)*wp+pad:]
			copy(row[:w], src[y*w:])
			// This row's right border and the next row's left border
			// are one run.
			clear(row[w : w+2*pad])
		}
		clear(dst[(pad+h)*wp:])
	}
}

// Col2imBatch is the adjoint of Im2colOperand over a batch bordered by
// pad: it scatters cols [c·k·k, n·outH·outW] back into the NCHW batch x
// [n, c, h, w], adding to the values x already holds. It is
// bit-identical to Col2imStrided applied sample by sample: an element
// receives one tap per (ky, kx) at most, and receives them in ascending
// (ky, kx) order starting from its own value, whichever loop runs
// outermost. The loops follow cols' memory order — one row of the
// whole batch at a time — and, instead of testing every tap against
// the border, clip each (ky, kx) pass once to the output rows and
// columns that land inside x (tapRange), so the inner loop is a bare
// strided add. It emits the tensor.col2im leaf span, once per batch.
func Col2imBatch(x, cols []float32, n, c, h, w, kernel, stride, pad int) {
	l := obs.StartLeaf("tensor.col2im")
	col2imBatch(x, cols, n, c, h, w, kernel, stride, pad)
	l.End()
}

func col2imBatch(x, cols []float32, n, c, h, w, kernel, stride, pad int) {
	outH, outW := ConvOutSize(h, kernel, stride, pad), ConvOutSize(w, kernel, stride, pad)
	outHW, ncols := outH*outW, n*outH*outW
	if len(x) < n*c*h*w || len(cols) < c*kernel*kernel*ncols {
		mustValidShape(false, "tensor: Col2imBatch of %d columns into [%d %d %d %d] (%d elements), kernel %d, stride %d, pad %d",
			len(cols), n, c, h, w, len(x), kernel, stride, pad)
	}
	row := 0
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kernel; ky++ {
			oy0, oy1 := tapRange(h, outH, ky, stride, pad)
			for kx := 0; kx < kernel; kx++ {
				ox0, ox1 := tapRange(w, outW, kx, stride, pad)
				src := cols[row*ncols:][:ncols]
				row++
				if ox0 == ox1 {
					continue
				}
				for img := 0; img < n; img++ {
					plane := x[(img*c+ch)*h*w : (img*c+ch+1)*h*w]
					taps := src[img*outHW : (img+1)*outHW]
					for oy := oy0; oy < oy1; oy++ {
						dst := plane[(oy*stride-pad+ky)*w+ox0*stride-pad+kx:]
						t := taps[oy*outW+ox0 : oy*outW+ox1]
						// A constant stride lets the compiler scale the
						// index and drop the bounds test: 1.2× on the
						// decoder's stride-2 shapes.
						switch stride {
						case 1:
							d := dst[:len(t)]
							for i, v := range t {
								d[i] += v
							}
						case 2:
							d := dst[:2*len(t)-1]
							for i, v := range t {
								d[2*i] += v
							}
						default:
							for i, v := range t {
								dst[i*stride] += v
							}
						}
					}
				}
			}
		}
	}
}

// tapRange returns the output positions [o0, o1) of a convolution
// whose tap k lands inside an input of size in, 0 ≤ o·stride−pad+k < in,
// clipped to the out positions there are. The range is empty when no
// position qualifies.
func tapRange(in, out, k, stride, pad int) (o0, o1 int) {
	if d := pad - k; d > 0 {
		o0 = (d + stride - 1) / stride
	}
	if d := in - 1 + pad - k; d >= 0 {
		o1 = min(out, d/stride+1)
	}
	return o0, max(o0, o1)
}
