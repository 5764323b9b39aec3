package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cachebox/internal/tensor"
)

// The conv layers lower their convolutions inside the GEMM packers
// (tensor.Im2colOperand) and scatter with tensor.Col2imBatch. These
// references build the same layers the materialised way — per-sample
// Im2colStrided/Col2imStrided column matrices multiplied by
// MatMul/MatMulATB/MatMulABT — and every output and gradient must match
// them bit for bit, which is what keeps the trained goldens where they
// are.

// convRef is Conv2d by materialised im2col.
type convRef struct {
	c    *Conv2d
	cols *tensor.Tensor
	x    *tensor.Tensor
}

func (r *convRef) geometry(h, w int) (outH, outW int) {
	return tensor.ConvOutSize(h, r.c.Kernel, r.c.Stride, r.c.Pad), tensor.ConvOutSize(w, r.c.Kernel, r.c.Stride, r.c.Pad)
}

func (r *convRef) forward(x *tensor.Tensor) *tensor.Tensor {
	c := r.c
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	outH, outW := r.geometry(h, w)
	outHW := outH * outW
	r.cols = tensor.New(c.InC*c.Kernel*c.Kernel, n*outHW)
	imSize := c.InC * h * w
	for i := 0; i < n; i++ {
		tensor.Im2colStrided(r.cols.Data, n*outHW, i*outHW, x.Data[i*imSize:(i+1)*imSize], c.InC, h, w, c.Kernel, c.Stride, c.Pad)
	}
	y := tensor.MatMul(c.W.Value, r.cols)
	for oc := 0; oc < c.OutC; oc++ {
		row := y.Data[oc*n*outHW : (oc+1)*n*outHW]
		for i := range row {
			row[i] += c.B.Value.Data[oc]
		}
	}
	r.x = x
	return ckToNCHW(y, n, c.OutC, outHW).Reshape(n, c.OutC, outH, outW)
}

func (r *convRef) backward(dy *tensor.Tensor, dW, dB []float32) *tensor.Tensor {
	c := r.c
	n, h, w := r.x.Shape[0], r.x.Shape[2], r.x.Shape[3]
	outH, outW := r.geometry(h, w)
	outHW := outH * outW
	dyCK := nchwToCK(dy.Reshape(n, c.OutC, outHW), n, c.OutC, outHW)
	addInto(dW, tensor.MatMulABT(dyCK, r.cols).Data)
	for oc := 0; oc < c.OutC; oc++ {
		var s float64
		for _, v := range dyCK.Data[oc*n*outHW : (oc+1)*n*outHW] {
			s += float64(v)
		}
		dB[oc] += float32(s)
	}
	dcols := tensor.MatMulATB(c.W.Value, dyCK)
	dx := tensor.New(n, c.InC, h, w)
	imSize := c.InC * h * w
	for i := 0; i < n; i++ {
		tensor.Col2imStrided(dx.Data[i*imSize:(i+1)*imSize], dcols.Data, n*outHW, i*outHW, c.InC, h, w, c.Kernel, c.Stride, c.Pad)
	}
	return dx
}

// convTRef is ConvTranspose2d by materialised col2im/im2col.
type convTRef struct {
	c   *ConvTranspose2d
	xCK *tensor.Tensor
	x   *tensor.Tensor
}

func (r *convTRef) forward(x *tensor.Tensor) *tensor.Tensor {
	c := r.c
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	hw := h * w
	outH := tensor.ConvTransposeOutSize(h, c.Kernel, c.Stride, c.Pad)
	outW := tensor.ConvTransposeOutSize(w, c.Kernel, c.Stride, c.Pad)
	r.xCK = nchwToCK(x.Reshape(n, c.InC, hw), n, c.InC, hw)
	cols := tensor.MatMulATB(c.W.Value, r.xCK)
	y := tensor.New(n, c.OutC, outH, outW)
	imSize := c.OutC * outH * outW
	for i := 0; i < n; i++ {
		tensor.Col2imStrided(y.Data[i*imSize:(i+1)*imSize], cols.Data, n*hw, i*hw, c.OutC, outH, outW, c.Kernel, c.Stride, c.Pad)
	}
	for i := 0; i < n; i++ {
		for oc := 0; oc < c.OutC; oc++ {
			row := y.Data[(i*c.OutC+oc)*outH*outW : (i*c.OutC+oc+1)*outH*outW]
			for j := range row {
				row[j] += c.B.Value.Data[oc]
			}
		}
	}
	r.x = x
	return y
}

func (r *convTRef) backward(dy *tensor.Tensor, dW, dB []float32) *tensor.Tensor {
	c := r.c
	n, h, w := r.x.Shape[0], r.x.Shape[2], r.x.Shape[3]
	hw := h * w
	outH, outW := dy.Shape[2], dy.Shape[3]
	dcols := tensor.New(c.OutC*c.Kernel*c.Kernel, n*hw)
	imSize := c.OutC * outH * outW
	for i := 0; i < n; i++ {
		tensor.Im2colStrided(dcols.Data, n*hw, i*hw, dy.Data[i*imSize:(i+1)*imSize], c.OutC, outH, outW, c.Kernel, c.Stride, c.Pad)
	}
	addInto(dW, tensor.MatMulABT(r.xCK, dcols).Data)
	for oc := 0; oc < c.OutC; oc++ {
		var s float64
		for i := 0; i < n; i++ {
			for _, v := range dy.Data[(i*c.OutC+oc)*outH*outW : (i*c.OutC+oc+1)*outH*outW] {
				s += float64(v)
			}
		}
		dB[oc] += float32(s)
	}
	return ckToNCHW(tensor.MatMul(c.W.Value, dcols), n, c.InC, hw).Reshape(n, c.InC, h, w)
}

func addInto(dst, src []float32) {
	for i, v := range src {
		dst[i] += v
	}
}

func assertSameBits(t *testing.T, got, want []float32, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %v, reference %v", label, i, got[i], want[i])
		}
	}
}

// TestConvLayersMatchMaterialisedReference runs each layer and its
// reference from the same weights and the same non-zero starting
// gradients — so "product, then add" rounding is exercised — over
// stride 1 and 2, pad 0 and 1, odd and even sizes, and batches of 1
// and 3, twice in a row so reused layer scratch is covered too.
func TestConvLayersMatchMaterialisedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	geoms := [][3]int{{3, 1, 0}, {3, 1, 1}, {4, 2, 1}, {4, 2, 0}, {3, 2, 1}, {5, 2, 1}}
	sizes := [][3]int{{1, 5, 7}, {3, 6, 9}, {3, 8, 5}}
	for _, g := range geoms {
		k, s, p := g[0], g[1], g[2]
		for _, sz := range sizes {
			n, h, w := sz[0], sz[1], sz[2]
			label := fmt.Sprintf("k%d s%d p%d n%d %dx%d", k, s, p, n, h, w)

			conv := NewConv2d(rng, "c", 3, 4, k, s, p)
			conv.B.Value.RandNormal(rng, 0, 1)
			ref := &convRef{c: conv}
			convT := NewConvTranspose2d(rng, "ct", 3, 2, k, s, p)
			convT.B.Value.RandNormal(rng, 0, 1)
			refT := &convTRef{c: convT}
			for pass := 0; pass < 2; pass++ {
				x := randInput(rng, n, 3, h, w)
				checkLayerAgainst(t, "Conv2d "+label, conv, ref.forward, ref.backward, x)
				checkLayerAgainst(t, "ConvTranspose2d "+label, convT, refT.forward, refT.backward, x)
			}
		}
	}
}

// checkLayerAgainst runs Forward/Backward on layer (whose params are
// W then B) and on the reference, and compares y, dx, dW and dB.
func checkLayerAgainst(t *testing.T, label string, layer Layer,
	fwd func(*tensor.Tensor) *tensor.Tensor, bwd func(dy *tensor.Tensor, dW, dB []float32) *tensor.Tensor, x *tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(x.Data))))
	ps := layer.Params()
	for _, p := range ps {
		p.Grad.RandNormal(rng, 0, 1)
	}
	dW := append([]float32(nil), ps[0].Grad.Data...)
	dB := append([]float32(nil), ps[1].Grad.Data...)

	want := fwd(x)
	got := layer.Forward(x, true)
	assertSameBits(t, got.Data, want.Data, label+" forward")
	dy := randInput(rng, want.Shape...)
	wantDx := bwd(dy, dW, dB)
	gotDx := layer.Backward(dy)
	assertSameBits(t, gotDx.Data, wantDx.Data, label+" dx")
	assertSameBits(t, ps[0].Grad.Data, dW, label+" dW")
	assertSameBits(t, ps[1].Grad.Data, dB, label+" dB")
}

// TestConvRejectsKernelWiderThanPaddedInput: a 1×1 image padded by 1
// cannot hold a 4×4 kernel, nor a 2×2 one a 5×5 kernel. ConvOutSize
// counts no output position for either, and both layers refuse the
// shape instead of reading outside their bordered copy.
func TestConvRejectsKernelWiderThanPaddedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, tc := range []struct{ side, kernel int }{{1, 4}, {2, 5}} {
		if got := tensor.ConvOutSize(tc.side, tc.kernel, 2, 1); got != 0 {
			t.Fatalf("ConvOutSize(%d, %d, 2, 1) = %d, want 0", tc.side, tc.kernel, got)
		}
		conv := NewConv2d(rng, "c", 2, 3, tc.kernel, 2, 1)
		mustPanic(t, fmt.Sprintf("Conv2d %dx%d, kernel %d", tc.side, tc.side, tc.kernel), func() {
			conv.Forward(randInput(rng, 1, 2, tc.side, tc.side), false)
		})
		// A transposed conv's output is the input of the convolution
		// it is the adjoint of; an empty input leaves it smaller than
		// the kernel.
		convT := NewConvTranspose2d(rng, "ct", 2, 3, tc.kernel, 2, 1)
		mustPanic(t, fmt.Sprintf("ConvTranspose2d 0x%d, kernel %d", tc.side, tc.kernel), func() {
			convT.Forward(tensor.New(1, 2, 0, tc.side), false)
		})
	}
}

func mustPanic(t *testing.T, label string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", label)
		}
	}()
	fn()
}

// TestLayersLeaveTheirTensorsIntact pins what ConvTranspose2d relies on
// when it keeps its input by reference for Backward (and what every
// layer's cached activation relies on): no layer writes to the input
// it was given, to the output it returned, or to the gradient it is
// handed.
func TestLayersLeaveTheirTensorsIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, tc := range []struct {
		name  string
		layer Layer
		shape []int
	}{
		{"Conv2d", NewConv2d(rng, "c", 3, 4, 4, 2, 1), []int{2, 3, 8, 8}},
		{"ConvTranspose2d", NewConvTranspose2d(rng, "ct", 3, 2, 4, 2, 1), []int{2, 3, 4, 4}},
		{"Dense", NewDense(rng, "d", 5, 7), []int{3, 5}},
		{"BatchNorm2d", NewBatchNorm2d("bn", 3), []int{2, 3, 4, 4}},
		{"ReLU", &ReLU{}, []int{2, 3, 4, 4}},
		{"LeakyReLU", NewLeakyReLU(0.2), []int{2, 3, 4, 4}},
		{"Tanh", &Tanh{}, []int{2, 8}},
		{"Dropout", NewDropout(0.5, 7), []int{2, 3, 4, 4}},
	} {
		x := randInput(rng, tc.shape...)
		x0 := x.Clone()
		y := tc.layer.Forward(x, true)
		y0 := y.Clone()
		dy := randInput(rng, y.Shape...)
		dy0 := dy.Clone()
		tc.layer.Backward(dy)
		assertSameBits(t, x.Data, x0.Data, tc.name+" input")
		assertSameBits(t, y.Data, y0.Data, tc.name+" output")
		assertSameBits(t, dy.Data, dy0.Data, tc.name+" output gradient")
	}
}

// TestEvalForwardKeepsTrainingState pins the eval half of the layer
// contract: an eval forward, here on a batch of another size, writes
// nothing a following Backward reads, so the input and parameter
// gradients equal those of the training forward/backward alone.
func TestEvalForwardKeepsTrainingState(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, tc := range []struct {
		name        string
		layer       Layer
		shape, eval []int
	}{
		{"Conv2d", NewConv2d(rng, "c", 3, 4, 4, 2, 1), []int{2, 3, 8, 8}, []int{3, 3, 6, 6}},
		{"ConvTranspose2d", NewConvTranspose2d(rng, "ct", 3, 2, 4, 2, 1), []int{2, 3, 4, 4}, []int{1, 3, 2, 2}},
		{"Dense", NewDense(rng, "d", 5, 7), []int{3, 5}, []int{1, 5}},
		{"BatchNorm2d", NewBatchNorm2d("bn", 3), []int{2, 3, 4, 4}, []int{1, 3, 2, 2}},
		{"ReLU", &ReLU{}, []int{2, 3, 4, 4}, []int{1, 3, 2, 2}},
		{"LeakyReLU", NewLeakyReLU(0.2), []int{2, 3, 4, 4}, []int{1, 3, 2, 2}},
		{"Tanh", &Tanh{}, []int{2, 8}, []int{1, 8}},
		{"Dropout", NewDropout(0.5, 7), []int{2, 3, 4, 4}, []int{1, 3, 2, 2}},
	} {
		x, xe := randInput(rng, tc.shape...), randInput(rng, tc.eval...)
		var dy *tensor.Tensor
		grads := func(interleave bool) (*tensor.Tensor, []*tensor.Tensor) {
			if d, ok := tc.layer.(*Dropout); ok {
				d.Reseed(5)
			}
			ZeroGrads(tc.layer.Params())
			y := tc.layer.Forward(x, true)
			if dy == nil {
				dy = randInput(rng, y.Shape...)
			}
			if interleave {
				tc.layer.Forward(xe, false)
			}
			dx := tc.layer.Backward(dy)
			var gs []*tensor.Tensor
			for _, p := range tc.layer.Params() {
				gs = append(gs, p.Grad.Clone())
			}
			return dx, gs
		}
		dx0, g0 := grads(false)
		dx1, g1 := grads(true)
		assertSameBits(t, dx1.Data, dx0.Data, tc.name+" input gradient")
		for i := range g0 {
			assertSameBits(t, g1[i].Data, g0[i].Data, tc.name+" parameter gradient")
		}
	}
}

// TestPackedWeightsMatchUnpacked: an eval forward reading the weights
// PackWeights packed equals a forward that packs per tile, bit for bit,
// and after an optimiser step the stale pack is not read.
func TestPackedWeightsMatchUnpacked(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	conv := NewConv2d(rng, "c", 3, 70, 4, 2, 1) // 70 rows: two row blocks
	convT := NewConvTranspose2d(rng, "ct", 5, 20, 4, 2, 1)
	for _, tc := range []struct {
		name  string
		layer interface {
			Layer
			PackWeights()
		}
		x *tensor.Tensor
	}{
		{"Conv2d", conv, randInput(rng, 2, 3, 8, 8)},
		{"ConvTranspose2d", convT, randInput(rng, 2, 5, 4, 4)},
	} {
		opt := NewAdam(tc.layer.Params(), 0.1)
		for step := 0; step < 2; step++ {
			want := tc.layer.Forward(tc.x, true) // no pack yet, or a stale one
			tc.layer.PackWeights()
			got := tc.layer.Forward(tc.x, false)
			assertSameBits(t, got.Data, want.Data, fmt.Sprintf("%s step %d", tc.name, step))
			for _, p := range tc.layer.Params() {
				p.Grad.RandNormal(rng, 0, 1)
			}
			opt.Step()
		}
	}
}

// TestSharedParamReadsOwnersPack: a layer whose weight shares another
// param's (Param.Share) reads the owner's packs, both forms, while the
// owner's version is the one they were packed from, and the unpacked
// weight once the owner is stepped, bit for bit either way. Its own
// packs stay empty.
func TestSharedParamReadsOwnersPack(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, tc := range []struct {
		name        string
		owner, user Layer
		x           *tensor.Tensor
	}{
		{"Conv2d", NewConv2d(rng, "c", 3, 70, 4, 2, 1), NewConv2d(rng, "c", 3, 70, 4, 2, 1), randInput(rng, 2, 3, 8, 8)},
		{"ConvTranspose2d", NewConvTranspose2d(rng, "ct", 5, 20, 4, 2, 1), NewConvTranspose2d(rng, "ct", 5, 20, 4, 2, 1), randInput(rng, 2, 5, 4, 4)},
	} {
		ow, uw := tc.owner.Params()[0], tc.user.Params()[0]
		uw.Share(ow)
		tc.user.Params()[1].Share(tc.owner.Params()[1])
		opt := NewAdam(tc.owner.Params(), 0.1)
		for step := 0; step < 2; step++ {
			for _, packed := range []bool{false, true} {
				if packed {
					ow.PackForms()
					for f := range ow.packs {
						if !ow.packs[f].current(uw, ow) {
							t.Fatalf("%s step %d: form %d of the owner's pack is not current for the sharer", tc.name, step, f)
						}
					}
				}
				label := fmt.Sprintf("%s step %d packed=%v", tc.name, step, packed)
				want := tc.owner.Forward(tc.x, true)
				got := tc.user.Forward(tc.x, true)
				assertSameBits(t, got.Data, want.Data, label+" forward")
				dy := randInput(rng, want.Shape...)
				assertSameBits(t, tc.user.Backward(dy).Data, tc.owner.Backward(dy).Data, label+" input gradient")
				assertSameBits(t, uw.Grad.Data, ow.Grad.Data, label+" weight gradient")
			}
			if uw.packs[formW].data != nil || uw.packs[formWT].data != nil {
				t.Fatalf("%s: the sharer built packs of its own", tc.name)
			}
			for _, p := range tc.owner.Params() {
				p.Grad.RandNormal(rng, 0, 1)
			}
			opt.Step() // the owner's packs are now a version behind
			ZeroGrads(tc.user.Params())
		}
	}
}
