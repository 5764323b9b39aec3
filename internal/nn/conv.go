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

	// xp is the zero-bordered input [N, InC, H+2Pad, W+2Pad] of the last
	// training forward: the source of the weight-gradient operand, kept
	// for backward and reused across calls (ensureTensor), a quarter the
	// size of the column matrix at kernel 4, stride 2. An eval forward
	// borders its input in arena scratch instead and writes no field.
	xp         *tensor.Tensor
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

// PackWeights packs W, the forward GEMM's A operand, for the weight's
// current version (Param.version), so that eval forwards read its GEMM
// panels instead of packing W in every tile of every call; it is a
// no-op while the pack is current. A GEMM whose pack is stale or was
// never built packs per tile, as a serial training step does: it
// changes W on every step, so a pack would serve one call (the sharded
// trainer, whose replicas share W, packs both forms with
// Param.PackForms). PackWeights writes the weight's packs, so it must
// not run concurrently with itself or with a Forward of a layer that
// shares the weight.
func (c *Conv2d) PackWeights() { c.W.pack(formW) }

// Forward implements Layer. x is [N, InC, H, W]. With train false it
// writes no field of the layer, so eval forwards may run concurrently.
func (c *Conv2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkConvInput("Conv2d input", x.Shape, c.InC, c.Kernel, c.Pad)
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	outH := tensor.ConvOutSize(h, c.Kernel, c.Stride, c.Pad)
	outW := tensor.ConvOutSize(w, c.Kernel, c.Stride, c.Pad)
	outHW := outH * outW
	hp, wp := h+2*c.Pad, w+2*c.Pad
	var xp *tensor.Tensor
	var lease tensor.Scratch
	if train {
		xp = ensureTensor(c.xp, n, c.InC, hp, wp)
	} else {
		lease = tensor.GetScratch(n * c.InC * hp * wp)
		xp = tensor.FromSlice(lease.Data, n, c.InC, hp, wp)
	}
	tensor.Pad(xp.Data, x.Data, n*c.InC, h, w, c.Pad)
	y := tensor.New(c.OutC, n*outHW)
	tensor.GemmOp(y.Data, c.W.gemmA(formW), tensor.Im2colOperand(xp.Data, n, c.InC, hp, wp, c.Kernel, c.Stride), false)
	lease.Release()
	for oc := 0; oc < c.OutC; oc++ {
		b := c.B.Value.Data[oc]
		row := y.Data[oc*n*outHW : (oc+1)*n*outHW]
		for i := range row {
			row[i] += b
		}
	}
	if train {
		c.xp, c.n, c.inH, c.inW, c.outH, c.outW = xp, n, h, w, outH, outW
	}
	return ckToNCHW(y, n, c.OutC, outHW).Reshape(n, c.OutC, outH, outW)
}

// Backward implements Layer. It must follow a training Forward.
func (c *Conv2d) Backward(dy *tensor.Tensor) *tensor.Tensor {
	mustValidShape(c.xp != nil, "nn: Conv2d.Backward without a training Forward")
	n, outHW := c.n, c.outH*c.outW
	checkShape("Conv2d grad", dy.Shape, n, c.OutC, c.outH, c.outW)
	dyCK := channelMajor(dy) // [OutC, N*outHW]
	cols := tensor.Im2colOperand(c.xp.Data, n, c.InC, c.inH+2*c.Pad, c.inW+2*c.Pad, c.Kernel, c.Stride)
	// dW += dY × colsᵀ, the product rounded before the add.
	tensor.GemmAddOp(c.W.Grad.Data, dyCK, cols.T())
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
	// dCols = Wᵀ × dY into arena scratch, then scatter into dx.
	dcols := tensor.GetScratch(c.InC * c.Kernel * c.Kernel * n * outHW)
	tensor.GemmOp(dcols.Data, c.W.gemmA(formWT), dyCK, false)
	dx := tensor.New(n, c.InC, c.inH, c.inW)
	tensor.Col2imBatch(dx.Data, dcols.Data, n, c.InC, c.inH, c.inW, c.Kernel, c.Stride, c.Pad)
	dcols.Release()
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

	// x is the input of the last training forward, kept by reference
	// for backward: no layer writes to a tensor another layer returned,
	// so it is still intact there.
	x          *tensor.Tensor
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

// PackWeights packs Wᵀ, the forward GEMM's A operand, for the weight's
// current version; see Conv2d.PackWeights.
func (c *ConvTranspose2d) PackWeights() { c.W.pack(formWT) }

// Forward implements Layer. x is [N, InC, H, W]. With train false it
// writes no field of the layer, so eval forwards may run concurrently.
func (c *ConvTranspose2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkShape("ConvTranspose2d input", x.Shape, -1, c.InC, -1, -1)
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	hw := h * w
	outH := tensor.ConvTransposeOutSize(h, c.Kernel, c.Stride, c.Pad)
	outW := tensor.ConvTransposeOutSize(w, c.Kernel, c.Stride, c.Pad)
	// The output is the input of the convolution this is the adjoint of.
	checkConvInput("ConvTranspose2d output", []int{n, c.OutC, outH, outW}, c.OutC, c.Kernel, c.Pad)
	cols := tensor.GetScratch(c.OutC * c.Kernel * c.Kernel * n * hw)
	tensor.GemmOp(cols.Data, c.W.gemmA(formWT), channelMajor(x), false)
	y := tensor.New(n, c.OutC, outH, outW)
	tensor.Col2imBatch(y.Data, cols.Data, n, c.OutC, outH, outW, c.Kernel, c.Stride, c.Pad)
	cols.Release()
	for in := 0; in < n; in++ {
		for oc := 0; oc < c.OutC; oc++ {
			b := c.B.Value.Data[oc]
			row := y.Data[(in*c.OutC+oc)*outH*outW : (in*c.OutC+oc+1)*outH*outW]
			for i := range row {
				row[i] += b
			}
		}
	}
	if train {
		c.x, c.n, c.inH, c.inW, c.outH, c.outW = x, n, h, w, outH, outW
	}
	return y
}

// Backward implements Layer. It must follow a training Forward.
func (c *ConvTranspose2d) Backward(dy *tensor.Tensor) *tensor.Tensor {
	mustValidShape(c.x != nil, "nn: ConvTranspose2d.Backward without a training Forward")
	n, hw := c.n, c.inH*c.inW
	checkShape("ConvTranspose2d grad", dy.Shape, n, c.OutC, c.outH, c.outW)
	hp, wp := c.outH+2*c.Pad, c.outW+2*c.Pad
	dyp := tensor.GetScratch(n * c.OutC * hp * wp)
	tensor.Pad(dyp.Data, dy.Data, n*c.OutC, c.outH, c.outW, c.Pad)
	dcols := tensor.Im2colOperand(dyp.Data, n, c.OutC, hp, wp, c.Kernel, c.Stride) // [OutC*k*k, N*HW]
	// dW += x × dcolsᵀ, the product rounded before the add.
	tensor.GemmAddOp(c.W.Grad.Data, channelMajor(c.x), dcols.T())
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
	tensor.GemmOp(dxCK.Data, c.W.gemmA(formW), dcols, false)
	dyp.Release()
	return ckToNCHW(dxCK, n, c.InC, hw).Reshape(n, c.InC, c.inH, c.inW)
}

// weightForm names one of the two GEMM A operands a conv weight
// [rows, cols] is read as, and indexes Param.packs.
type weightForm uint8

const (
	// formW is W itself: Conv2d's forward and ConvTranspose2d's dx.
	formW weightForm = iota
	// formWT is Wᵀ: ConvTranspose2d's forward and Conv2d's dx.
	formWT
)

// of describes p's weight in form f as an unpacked GEMM operand.
func (f weightForm) of(p *Param) tensor.Operand {
	w := tensor.Mat(p.Value.Data, p.Value.Shape[0], p.Value.Shape[1])
	if f == formWT {
		return w.T()
	}
	return w
}

// weightPack is one form of a weight packed ahead
// (tensor.Operand.PackedA) from one version of it: the backing array it
// was read from and the owner's Param.version at the time of packing.
// A param re-aliased to another tensor, or updated in place by an
// optimiser step or Restore, no longer matches, and the pack is stale.
type weightPack struct {
	op      tensor.Operand
	data    *float32
	version uint64
}

// current reports whether the pack was built from p's Value as it is
// now, under owner o's version.
func (w *weightPack) current(p, o *Param) bool {
	return w.data == &p.Value.Data[0] && w.version == o.version
}

// gemmA returns p's weight in form f as a GEMM A operand: the owner's
// pack when it is current, the unpacked weight otherwise, so a stale
// pack is never read. It only reads, so concurrent forwards may call
// it; a pack is only ever built explicitly (pack), never here.
func (p *Param) gemmA(f weightForm) tensor.Operand {
	o := p.packOwner()
	if w := &o.packs[f]; w.current(p, o) {
		return w.op
	}
	return f.of(p)
}

// pack brings the owner's pack of form f up to the current version,
// re-packing into the previous version's buffer, unless it is current.
func (p *Param) pack(f weightForm) {
	o := p.packOwner()
	w := &o.packs[f]
	if w.current(p, o) {
		return
	}
	w.op, w.data, w.version = f.of(p).RepackedA(w.op), &p.Value.Data[0], o.version
}

// PackForms packs a conv weight in both GEMM A forms (W and Wᵀ), which
// between them serve every weight GEMM of a training forward and
// backward, unless they are current. It writes the owner's packs, so
// it must not run concurrently with a forward or backward of any layer
// that reads the weight; PackForms of different weights may run
// concurrently.
func (p *Param) PackForms() {
	p.pack(formW)
	p.pack(formWT)
}

// channelMajor describes the NCHW batch x as the [C, N*H*W] matrix the
// batched GEMMs take — nchwToCK's result, read in place: the column
// matrix of a 1×1, stride-1 convolution with no border.
func channelMajor(x *tensor.Tensor) tensor.Operand {
	return tensor.Im2colOperand(x.Data, x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3], 1, 1)
}
