package nn

import (
	"math/rand"

	"cachebox/internal/tensor"
)

// Conv2d is a strided 2-D convolution over NCHW input. The batch is
// lowered inside the GEMM packers (tensor.Im2colOperand) so the whole
// batch is a single GEMM (larger batches amortise per-layer overhead —
// the batched-inference mechanism of paper RQ5) and no column matrix is
// ever built.
type Conv2d struct {
	InC, OutC, Kernel, Stride, Pad int

	W *Param // [OutC, InC*Kernel*Kernel]
	B *Param // [OutC]

	// xp is the zero-bordered input [N, InC, H+2Pad, W+2Pad]: the source
	// of the forward and weight-gradient operands, kept for backward and
	// reused across calls (ensureTensor), a quarter the size of the
	// column matrix at kernel 4, stride 2.
	xp         *tensor.Tensor
	dcols      *tensor.Tensor // reused backward scratch [InC*k*k, N*outHW]
	inH, inW   int
	n          int
	outH, outW int

	qw *tensor.QuantMat // int8 weights [OutC, InC*k*k], set by PrepareQuant
}

// NewConv2d constructs the layer with Pix2Pix weight init.
func NewConv2d(rng *rand.Rand, name string, inC, outC, kernel, stride, pad int) *Conv2d {
	c := &Conv2d{
		InC: inC, OutC: outC, Kernel: kernel, Stride: stride, Pad: pad,
		W: newParam(name+".w", outC, inC*kernel*kernel),
		B: newParam(name+".b", outC),
	}
	InitConv(rng, c.W.Value)
	return c
}

// Params implements Layer.
func (c *Conv2d) Params() []*Param { return []*Param{c.W, c.B} }

// Forward implements Layer. x is [N, InC, H, W].
func (c *Conv2d) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	checkConvInput("Conv2d input", x.Shape, c.InC, c.Kernel, c.Pad)
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	outH := tensor.ConvOutSize(h, c.Kernel, c.Stride, c.Pad)
	outW := tensor.ConvOutSize(w, c.Kernel, c.Stride, c.Pad)
	outHW := outH * outW
	hp, wp := h+2*c.Pad, w+2*c.Pad
	xp := ensureTensor(c.xp, n, c.InC, hp, wp)
	tensor.Pad(xp.Data, x.Data, n*c.InC, h, w, c.Pad)
	y := tensor.New(c.OutC, n*outHW)
	tensor.GemmOp(y.Data, weights(c.W), tensor.Im2colOperand(xp.Data, n, c.InC, hp, wp, c.Kernel, c.Stride), false)
	for oc := 0; oc < c.OutC; oc++ {
		b := c.B.Value.Data[oc]
		row := y.Data[oc*n*outHW : (oc+1)*n*outHW]
		for i := range row {
			row[i] += b
		}
	}
	c.xp, c.n, c.inH, c.inW, c.outH, c.outW = xp, n, h, w, outH, outW
	return ckToNCHW(y, n, c.OutC, outHW).Reshape(n, c.OutC, outH, outW)
}

// Backward implements Layer.
func (c *Conv2d) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n, outHW := c.n, c.outH*c.outW
	checkShape("Conv2d grad", dy.Shape, n, c.OutC, c.outH, c.outW)
	dyCK := channelMajor(dy) // [OutC, N*outHW]
	cols := tensor.Im2colOperand(c.xp.Data, n, c.InC, c.inH+2*c.Pad, c.inW+2*c.Pad, c.Kernel, c.Stride)
	// dW = dY × colsᵀ.
	addGrad(c.W, dyCK, cols.T())
	// dB = row sums of dY, each in (sample, position) order.
	for oc := 0; oc < c.OutC; oc++ {
		var s float64
		for in := 0; in < n; in++ {
			for _, v := range dy.Data[(in*c.OutC+oc)*outHW : (in*c.OutC+oc+1)*outHW] {
				s += float64(v)
			}
		}
		c.B.Grad.Data[oc] += float32(s)
	}
	// dCols = Wᵀ × dY into the reused scratch, then scatter into dx.
	dcols := ensureTensor(c.dcols, c.InC*c.Kernel*c.Kernel, n*outHW)
	tensor.GemmOp(dcols.Data, weights(c.W).T(), dyCK, false)
	c.dcols = dcols
	dx := tensor.New(n, c.InC, c.inH, c.inW)
	tensor.Col2imBatch(dx.Data, dcols.Data, n, c.InC, c.inH, c.inW, c.Kernel, c.Stride, c.Pad)
	return dx
}

// ConvTranspose2d is a strided transposed convolution (the Pix2Pix
// up-sampling block), implemented as the exact adjoint of Conv2d:
// forward scatters with col2im, backward gathers through
// tensor.Im2colOperand.
type ConvTranspose2d struct {
	InC, OutC, Kernel, Stride, Pad int

	W *Param // [InC, OutC*Kernel*Kernel]
	B *Param // [OutC]

	// x is the input, kept by reference for backward: no layer writes
	// to a tensor another layer returned, so it is still intact there.
	x          *tensor.Tensor
	cols       *tensor.Tensor // reused forward scratch [OutC*k*k, N*HW]
	n          int
	inH, inW   int
	outH, outW int

	qwt *tensor.QuantMat // transposed int8 weights [OutC*k*k, InC], set by PrepareQuant
}

// NewConvTranspose2d constructs the layer with Pix2Pix weight init.
func NewConvTranspose2d(rng *rand.Rand, name string, inC, outC, kernel, stride, pad int) *ConvTranspose2d {
	c := &ConvTranspose2d{
		InC: inC, OutC: outC, Kernel: kernel, Stride: stride, Pad: pad,
		W: newParam(name+".w", inC, outC*kernel*kernel),
		B: newParam(name+".b", outC),
	}
	InitConv(rng, c.W.Value)
	return c
}

// Params implements Layer.
func (c *ConvTranspose2d) Params() []*Param { return []*Param{c.W, c.B} }

// Forward implements Layer. x is [N, InC, H, W].
func (c *ConvTranspose2d) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	checkShape("ConvTranspose2d input", x.Shape, -1, c.InC, -1, -1)
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	hw := h * w
	outH := tensor.ConvTransposeOutSize(h, c.Kernel, c.Stride, c.Pad)
	outW := tensor.ConvTransposeOutSize(w, c.Kernel, c.Stride, c.Pad)
	// The output is the input of the convolution this is the adjoint of.
	checkConvInput("ConvTranspose2d output", []int{n, c.OutC, outH, outW}, c.OutC, c.Kernel, c.Pad)
	cols := ensureTensor(c.cols, c.OutC*c.Kernel*c.Kernel, n*hw)
	tensor.GemmOp(cols.Data, weights(c.W).T(), channelMajor(x), false)
	c.cols = cols
	y := tensor.New(n, c.OutC, outH, outW)
	tensor.Col2imBatch(y.Data, cols.Data, n, c.OutC, outH, outW, c.Kernel, c.Stride, c.Pad)
	for in := 0; in < n; in++ {
		for oc := 0; oc < c.OutC; oc++ {
			b := c.B.Value.Data[oc]
			row := y.Data[(in*c.OutC+oc)*outH*outW : (in*c.OutC+oc+1)*outH*outW]
			for i := range row {
				row[i] += b
			}
		}
	}
	c.x, c.n, c.inH, c.inW, c.outH, c.outW = x, n, h, w, outH, outW
	return y
}

// Backward implements Layer.
func (c *ConvTranspose2d) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n, hw := c.n, c.inH*c.inW
	checkShape("ConvTranspose2d grad", dy.Shape, n, c.OutC, c.outH, c.outW)
	hp, wp := c.outH+2*c.Pad, c.outW+2*c.Pad
	dyp := tensor.GetScratch(n * c.OutC * hp * wp)
	tensor.Pad(dyp.Data, dy.Data, n*c.OutC, c.outH, c.outW, c.Pad)
	dcols := tensor.Im2colOperand(dyp.Data, n, c.OutC, hp, wp, c.Kernel, c.Stride) // [OutC*k*k, N*HW]
	// dW = x × dcolsᵀ.
	addGrad(c.W, channelMajor(c.x), dcols.T())
	// dB = sums over dy per out channel.
	ohw := c.outH * c.outW
	for oc := 0; oc < c.OutC; oc++ {
		var s float64
		for in := 0; in < n; in++ {
			for _, v := range dy.Data[(in*c.OutC+oc)*ohw : (in*c.OutC+oc+1)*ohw] {
				s += float64(v)
			}
		}
		c.B.Grad.Data[oc] += float32(s)
	}
	// dx = W × dcols, back to NCHW.
	dxCK := tensor.New(c.InC, n*hw)
	tensor.GemmOp(dxCK.Data, weights(c.W), dcols, false)
	dyp.Release()
	return ckToNCHW(dxCK, n, c.InC, hw).Reshape(n, c.InC, c.inH, c.inW)
}

// weights describes a conv weight [rows, cols] as a GEMM operand.
func weights(p *Param) tensor.Operand {
	return tensor.Mat(p.Value.Data, p.Value.Shape[0], p.Value.Shape[1])
}

// channelMajor describes the NCHW batch x as the [C, N*H*W] matrix the
// batched GEMMs take — nchwToCK's result, read in place: the column
// matrix of a 1×1, stride-1 convolution with no border.
func channelMajor(x *tensor.Tensor) tensor.Operand {
	return tensor.Im2colOperand(x.Data, x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3], 1, 1)
}

// addGrad adds a×b to p's gradient. The product is formed on its own
// and then added, so each gradient element is rounded exactly as
// AddInPlace of a fresh MatMul rounds it.
func addGrad(p *Param, a, b tensor.Operand) {
	g := tensor.GetScratch(len(p.Grad.Data))
	tensor.GemmOp(g.Data, a, b, false)
	for i, v := range g.Data {
		p.Grad.Data[i] += v
	}
	g.Release()
}
