package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"cachebox/internal/tensor"
)

// scalarLoss is a fixed random linear functional sum(w ⊙ y): its
// gradient w.r.t. y is w, making analytic/numeric comparisons easy.
type scalarLoss struct {
	w *tensor.Tensor
}

func newScalarLoss(rng *rand.Rand, shape []int) *scalarLoss {
	w := tensor.New(shape...)
	w.RandNormal(rng, 0, 1)
	return &scalarLoss{w: w}
}

func (s *scalarLoss) value(y *tensor.Tensor) float64 {
	var v float64
	for i, yv := range y.Data {
		v += float64(yv) * float64(s.w.Data[i])
	}
	return v
}

// gradCheck verifies Backward against central differences, both for
// the input gradient and for every parameter gradient.
func gradCheck(t *testing.T, name string, layer Layer, x *tensor.Tensor, train bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	y := layer.Forward(x.Clone(), train)
	loss := newScalarLoss(rng, y.Shape)
	ZeroGrads(layer.Params())
	dx := layer.Backward(loss.w.Clone())

	const eps = 1e-2
	const tol = 6e-2
	check := func(what string, data []float32, grad []float32, reforward func() *tensor.Tensor) {
		idxs := pickIndices(rng, len(data), 6)
		for _, i := range idxs {
			orig := data[i]
			data[i] = orig + eps
			lp := loss.value(reforward())
			data[i] = orig - eps
			lm := loss.value(reforward())
			data[i] = orig
			num := (lp - lm) / (2 * eps)
			ana := float64(grad[i])
			scale := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
			if math.Abs(num-ana)/scale > tol {
				t.Fatalf("%s %s grad[%d]: analytic %v vs numeric %v", name, what, i, ana, num)
			}
		}
	}
	check("input", x.Data, dx.Data, func() *tensor.Tensor { return layer.Forward(x.Clone(), train) })
	for _, p := range layer.Params() {
		p := p
		check(p.Name, p.Value.Data, p.Grad.Data, func() *tensor.Tensor { return layer.Forward(x.Clone(), train) })
	}
}

func pickIndices(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	perm := rng.Perm(n)
	return perm[:k]
}

func randInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.RandNormal(rng, 0, 1)
	return x
}

func TestConv2dGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	layer := NewConv2d(rng, "c", 2, 3, 4, 2, 1)
	gradCheck(t, "Conv2d", layer, randInput(rng, 2, 2, 8, 8), true)
}

func TestConv2dStride1GradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	layer := NewConv2d(rng, "c", 1, 2, 3, 1, 1)
	gradCheck(t, "Conv2d-s1", layer, randInput(rng, 1, 1, 5, 5), true)
}

func TestConvTranspose2dGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	layer := NewConvTranspose2d(rng, "ct", 3, 2, 4, 2, 1)
	gradCheck(t, "ConvTranspose2d", layer, randInput(rng, 2, 3, 4, 4), true)
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	layer := NewDense(rng, "d", 5, 7)
	gradCheck(t, "Dense", layer, randInput(rng, 3, 5), true)
}

func TestBatchNormGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	layer := NewBatchNorm2d("bn", 3)
	// Non-trivial gamma/beta so their gradients matter.
	layer.Gamma.Value.RandNormal(rng, 1, 0.2)
	layer.Beta.Value.RandNormal(rng, 0, 0.2)
	gradCheck(t, "BatchNorm2d", layer, randInput(rng, 4, 3, 3, 3), true)
}

func TestActivationGradChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	gradCheck(t, "ReLU", &ReLU{}, randInput(rng, 2, 3, 4, 4), true)
	gradCheck(t, "LeakyReLU", NewLeakyReLU(0.2), randInput(rng, 2, 3, 4, 4), true)
	gradCheck(t, "Tanh", &Tanh{}, randInput(rng, 2, 8), true)
}

func TestSequentialGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seq := NewSequential(
		NewConv2d(rng, "c1", 1, 2, 4, 2, 1),
		NewLeakyReLU(0.2),
		NewConv2d(rng, "c2", 2, 2, 4, 2, 1),
	)
	gradCheck(t, "Sequential", seq, randInput(rng, 1, 1, 8, 8), true)
}

func TestConvShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := NewConv2d(rng, "c", 3, 8, 4, 2, 1)
	y := c.Forward(randInput(rng, 2, 3, 16, 16), false)
	if y.Shape[0] != 2 || y.Shape[1] != 8 || y.Shape[2] != 8 || y.Shape[3] != 8 {
		t.Fatalf("conv output shape %v", y.Shape)
	}
	ct := NewConvTranspose2d(rng, "ct", 8, 3, 4, 2, 1)
	z := ct.Forward(y, false)
	if z.Shape[2] != 16 || z.Shape[3] != 16 || z.Shape[1] != 3 {
		t.Fatalf("convT output shape %v", z.Shape)
	}
}

func TestConvBatchConsistency(t *testing.T) {
	// Running two samples as one batch must equal running them
	// separately (the batched GEMM folding must be exact).
	rng := rand.New(rand.NewSource(9))
	c := NewConv2d(rng, "c", 2, 4, 4, 2, 1)
	a := randInput(rng, 1, 2, 8, 8)
	b := randInput(rng, 1, 2, 8, 8)
	both := tensor.New(2, 2, 8, 8)
	copy(both.Data[:a.Len()], a.Data)
	copy(both.Data[a.Len():], b.Data)
	ya := c.Forward(a, false)
	yb := c.Forward(b, false)
	yboth := c.Forward(both, false)
	for i := range ya.Data {
		if math.Abs(float64(yboth.Data[i]-ya.Data[i])) > 1e-5 {
			t.Fatalf("batched sample 0 differs at %d", i)
		}
	}
	off := ya.Len()
	for i := range yb.Data {
		if math.Abs(float64(yboth.Data[off+i]-yb.Data[i])) > 1e-5 {
			t.Fatalf("batched sample 1 differs at %d", i)
		}
	}
}

func TestBatchNormNormalises(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	bn := NewBatchNorm2d("bn", 2)
	x := randInput(rng, 8, 2, 4, 4)
	x.Scale(3)
	y := bn.Forward(x, true)
	// Per-channel mean ~0, var ~1.
	for c := 0; c < 2; c++ {
		var mean float64
		cnt := 0
		for n := 0; n < 8; n++ {
			for _, v := range y.Data[(n*2+c)*16 : (n*2+c+1)*16] {
				mean += float64(v)
				cnt++
			}
		}
		mean /= float64(cnt)
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("channel %d mean = %v", c, mean)
		}
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bn := NewBatchNorm2d("bn", 1)
	// Train on shifted data to move the running mean.
	for i := 0; i < 50; i++ {
		x := randInput(rng, 4, 1, 2, 2)
		for j := range x.Data {
			x.Data[j] += 5
		}
		bn.Forward(x, true)
	}
	if math.Abs(float64(bn.RunMean.Data[0])-5) > 0.5 {
		t.Fatalf("running mean = %v, want ~5", bn.RunMean.Data[0])
	}
	// Inference on the same distribution yields ~zero mean output.
	x := randInput(rng, 4, 1, 2, 2)
	for j := range x.Data {
		x.Data[j] += 5
	}
	y := bn.Forward(x, false)
	var mean float64
	for _, v := range y.Data {
		mean += float64(v)
	}
	mean /= float64(y.Len())
	if math.Abs(mean) > 0.5 {
		t.Fatalf("inference mean = %v", mean)
	}
}

func TestDropout(t *testing.T) {
	d := NewDropout(0.5, 1)
	x := tensor.New(1, 10000)
	x.Fill(1)
	y := d.Forward(x, true)
	zeros := 0
	for _, v := range y.Data {
		if v == 0 {
			zeros++
		} else if math.Abs(float64(v)-2) > 1e-6 {
			t.Fatalf("survivor scaled to %v, want 2", v)
		}
	}
	if zeros < 4500 || zeros > 5500 {
		t.Fatalf("dropped %d of 10000", zeros)
	}
	// Inference: identity.
	y2 := d.Forward(x, false)
	for _, v := range y2.Data {
		if v != 1 {
			t.Fatal("inference dropout not identity")
		}
	}
	// An eval forward writes nothing: Backward still applies the mask
	// of the last training forward.
	g := tensor.New(1, 10000)
	g.Fill(3)
	got := d.Backward(g)
	for i, v := range got.Data {
		if want := 3 * y.Data[i]; v != want {
			t.Fatalf("backward after an eval forward: grad[%d] = %v, want the training mask's %v", i, v, want)
		}
	}
}

func TestBCEWithLogits(t *testing.T) {
	z := tensor.FromSlice([]float32{0, 2, -2}, 3)
	tt := tensor.FromSlice([]float32{1, 1, 0}, 3)
	loss, dz := BCEWithLogits(z, tt)
	// Hand-computed: ln2 ~ 0.6931, softplus(-2) ~ 0.1269 twice.
	want := (math.Log(2) + 0.126928 + 0.126928) / 3
	if math.Abs(loss-want) > 1e-4 {
		t.Fatalf("loss = %v, want %v", loss, want)
	}
	// dz = (sigmoid(z)-t)/n.
	if math.Abs(float64(dz.Data[0])-(0.5-1)/3) > 1e-5 {
		t.Fatalf("dz[0] = %v", dz.Data[0])
	}
	// Extreme logits must not produce NaN/Inf.
	z2 := tensor.FromSlice([]float32{1000, -1000}, 2)
	t2 := tensor.FromSlice([]float32{0, 1}, 2)
	loss2, dz2 := BCEWithLogits(z2, t2)
	if math.IsNaN(loss2) || math.IsInf(loss2, 0) || !dz2.IsFinite() {
		t.Fatalf("unstable BCE: %v %v", loss2, dz2.Data)
	}
}

func TestL1AndMSELoss(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2, 3, 4}, 4)
	b := tensor.FromSlice([]float32{2, 2, 1, 4}, 4)
	l1, da := L1Loss(a, b)
	if math.Abs(l1-0.75) > 1e-6 {
		t.Fatalf("L1 = %v, want 0.75", l1)
	}
	if da.Data[0] != -0.25 || da.Data[2] != 0.25 {
		t.Fatalf("dL1 = %v", da.Data)
	}
	mse, dm := MSELoss(a, b)
	if math.Abs(mse-(1.0+0+4+0)/4) > 1e-6 {
		t.Fatalf("MSE = %v", mse)
	}
	if math.Abs(float64(dm.Data[2])-2*2.0/4) > 1e-6 {
		t.Fatalf("dMSE = %v", dm.Data)
	}
}

func TestAdamMinimisesQuadratic(t *testing.T) {
	// Minimise ||w - target||² with Adam: w must converge.
	p := newParam("w", 4)
	p.Value.Fill(5)
	target := tensor.FromSlice([]float32{1, -2, 0.5, 3}, 4)
	opt := NewAdam([]*Param{p}, 0.05)
	for i := 0; i < 500; i++ {
		_, g := MSELoss(p.Value, target)
		copy(p.Grad.Data, g.Data)
		opt.Step()
	}
	for i := range target.Data {
		if math.Abs(float64(p.Value.Data[i]-target.Data[i])) > 0.05 {
			t.Fatalf("w[%d] = %v, want %v", i, p.Value.Data[i], target.Data[i])
		}
	}
}

func TestAdamClearsGrads(t *testing.T) {
	p := newParam("w", 2)
	p.Grad.Fill(1)
	opt := NewAdam([]*Param{p}, 0.01)
	opt.Step()
	if p.Grad.Data[0] != 0 {
		t.Fatal("Adam did not clear gradients")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m1 := NewSequential(NewConv2d(rng, "c", 1, 2, 4, 2, 1), NewDense(rng, "d", 4, 3))
	m2 := NewSequential(NewConv2d(rng, "c", 1, 2, 4, 2, 1), NewDense(rng, "d", 4, 3))
	if err := Restore(Snapshot(m1.Params()), m2.Params()); err != nil {
		t.Fatal(err)
	}
	p1, p2 := m1.Params(), m2.Params()
	for i := range p1 {
		for j := range p1[i].Value.Data {
			if p1[i].Value.Data[j] != p2[i].Value.Data[j] {
				t.Fatalf("param %d differs after restore", i)
			}
		}
	}
}

func TestRestoreRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	blobs := Snapshot(NewDense(rng, "d", 4, 3).Params())
	wrongCount := NewSequential(NewDense(rng, "d", 4, 3), NewDense(rng, "e", 3, 2))
	if err := Restore(blobs, wrongCount.Params()); err == nil {
		t.Fatal("param-count mismatch accepted")
	}
	wrongShape := NewDense(rng, "d", 5, 3)
	if err := Restore(blobs, wrongShape.Params()); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestTrainingReducesLossOnToyTask(t *testing.T) {
	// A tiny conv net must learn the identity filter on 1-channel
	// images: y = x. This is an end-to-end smoke test of
	// forward/backward/optimiser together.
	rng := rand.New(rand.NewSource(14))
	model := NewSequential(
		NewConv2d(rng, "c1", 1, 4, 3, 1, 1),
		NewLeakyReLU(0.2),
		NewConv2d(rng, "c2", 4, 1, 3, 1, 1),
	)
	opt := NewAdam(model.Params(), 2e-3)
	var first, last float64
	for i := 0; i < 150; i++ {
		x := randInput(rng, 4, 1, 8, 8)
		y := model.Forward(x, true)
		loss, dy := MSELoss(y, x)
		if i == 0 {
			first = loss
		}
		last = loss
		model.Backward(dy)
		opt.Step()
	}
	if last > first*0.2 {
		t.Fatalf("loss did not fall: first %v last %v", first, last)
	}
}

// TestForEachRangeCoversEveryElementOnce lays out parameters that
// straddle chunk boundaries, and some smaller than a chunk, and checks
// that every element is handed out exactly once at any pool width.
func TestForEachRangeCoversEveryElementOnce(t *testing.T) {
	for _, sizes := range [][]int{{1}, {rangeChunk}, {rangeChunk + 1, 3}, {5, 2*rangeChunk + 7, rangeChunk - 1, 9}} {
		var params []*Param
		for i, n := range sizes {
			params = append(params, newParam(fmt.Sprint("p", i), n))
		}
		for _, workers := range []int{1, 3} {
			ForEachRange(params, workers, func(i, lo, hi int) {
				for j := range params[i].Value.Data[lo:hi] {
					params[i].Value.Data[lo+j]++
				}
			})
		}
		for i, p := range params {
			for j, v := range p.Value.Data {
				if v != 2 {
					t.Fatalf("sizes %v: param %d element %d visited %v times over two passes, want 2", sizes, i, j, v)
				}
			}
		}
	}
}

// TestAdamStepIsWidthInvariant: Adam.Step runs over element ranges on
// a pool as wide as GOMAXPROCS, and gives the same weights and
// moments, byte for byte, with one worker as with the host's
// GOMAXPROCS and more, over parameters larger than a range and smaller
// than one.
func TestAdamStepIsWidthInvariant(t *testing.T) {
	build := func() []*Param {
		rng := rand.New(rand.NewSource(37))
		var ps []*Param
		for i, n := range []int{3*rangeChunk + 11, 7, rangeChunk - 5} {
			p := newParam(fmt.Sprint("p", i), n)
			p.Value.RandNormal(rng, 0, 1)
			ps = append(ps, p)
		}
		return ps
	}
	run := func(workers int) ([]*Param, AdamState) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		ps := build()
		opt := NewAdam(ps, 0)
		rng := rand.New(rand.NewSource(38))
		for step := 0; step < 3; step++ {
			for _, p := range ps {
				p.Grad.RandNormal(rng, 0, 1)
			}
			opt.Step()
		}
		return ps, opt.State()
	}
	ref, refState := run(1)
	for _, workers := range []int{runtime.GOMAXPROCS(0), 8} {
		ps, st := run(workers)
		for i := range ps {
			label := fmt.Sprintf("width %d param %d", workers, i)
			assertSameBits(t, ps[i].Value.Data, ref[i].Value.Data, label+" value")
			assertSameBits(t, st.M[i].Data, refState.M[i].Data, label+" first moment")
			assertSameBits(t, st.V[i].Data, refState.V[i].Data, label+" second moment")
			if ps[i].version != 3 {
				t.Fatalf("%s: version %d after 3 steps, want 3", label, ps[i].version)
			}
		}
	}
}
