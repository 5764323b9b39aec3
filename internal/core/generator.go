package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"cachebox/internal/nn"
	"cachebox/internal/par"
	"cachebox/internal/tensor"
)

// Generator is the CB-GAN U-Net (paper Fig. 5a): an encoder/decoder
// with skip connections whose bottleneck is augmented with the output
// of a three-layer dense network over the cache parameters.
type Generator struct {
	cfg Config

	convs []*nn.Conv2d      // encoder convs
	bns   []*nn.BatchNorm2d // encoder norms (nil for block 0)
	acts  []*nn.LeakyReLU   // encoder activations
	mlp   []nn.Layer        // conditioning path (Dense/ReLU alternating)
	ups   []*nn.ConvTranspose2d
	ubns  []*nn.BatchNorm2d // decoder norms (nil for final block)
	uacts []*nn.ReLU
	drops []*nn.Dropout // nil when disabled
	tanh  *nn.Tanh

	// What the last training forward kept for Backward; an eval forward
	// leaves it alone.
	skips    []*tensor.Tensor
	batch    int
	condUsed bool

	// packMu serialises packWeights between concurrent eval forwards.
	packMu sync.Mutex
}

// NewGenerator builds the generator for cfg.
func NewGenerator(cfg Config, rng *rand.Rand) *Generator {
	d := cfg.depth()
	ch := cfg.channels()
	g := &Generator{cfg: cfg}
	// Encoder.
	in := 1
	for i := 0; i < d; i++ {
		g.convs = append(g.convs, nn.NewConv2d(rng, fmt.Sprintf("g.enc%d", i), in, ch[i], 4, 2, 1))
		if i > 0 {
			g.bns = append(g.bns, nn.NewBatchNorm2d(fmt.Sprintf("g.enc%d.bn", i), ch[i]))
		} else {
			g.bns = append(g.bns, nil)
		}
		g.acts = append(g.acts, nn.NewLeakyReLU(0.2))
		in = ch[i]
	}
	// Conditioning MLP: three dense layers (paper §3.2.3).
	condC := 0
	if cfg.CondDim > 0 {
		condC = cfg.CondChannels
		bhw := (cfg.ImageSize >> uint(d)) * (cfg.ImageSize >> uint(d))
		g.mlp = []nn.Layer{
			nn.NewDense(rng, "g.cond0", cfg.CondDim, cfg.CondHidden),
			&nn.ReLU{},
			nn.NewDense(rng, "g.cond1", cfg.CondHidden, cfg.CondHidden),
			&nn.ReLU{},
			nn.NewDense(rng, "g.cond2", cfg.CondHidden, condC*bhw),
		}
	}
	// Decoder.
	up := ch[d-1] + condC
	for j := 0; j < d; j++ {
		var out int
		if j < d-1 {
			out = ch[d-2-j]
		} else {
			out = 1
		}
		g.ups = append(g.ups, nn.NewConvTranspose2d(rng, fmt.Sprintf("g.dec%d", j), up, out, 4, 2, 1))
		if j < d-1 {
			g.ubns = append(g.ubns, nn.NewBatchNorm2d(fmt.Sprintf("g.dec%d.bn", j), out))
			g.uacts = append(g.uacts, &nn.ReLU{})
			if cfg.DropoutP > 0 && j < 2 {
				g.drops = append(g.drops, nn.NewDropout(cfg.DropoutP, cfg.Seed+int64(j)+101))
			} else {
				g.drops = append(g.drops, nil)
			}
			up = out + ch[d-2-j] // skip concat doubles channels
		} else {
			g.ubns = append(g.ubns, nil)
			g.uacts = append(g.uacts, nil)
			g.drops = append(g.drops, nil)
		}
	}
	g.tanh = &nn.Tanh{}
	return g
}

// Params returns all trainable parameters.
func (g *Generator) Params() []*nn.Param {
	var ps []*nn.Param
	for i, c := range g.convs {
		ps = append(ps, c.Params()...)
		if g.bns[i] != nil {
			ps = append(ps, g.bns[i].Params()...)
		}
	}
	for _, l := range g.mlp {
		ps = append(ps, l.Params()...)
	}
	for j, u := range g.ups {
		ps = append(ps, u.Params()...)
		if g.ubns[j] != nil {
			ps = append(ps, g.ubns[j].Params()...)
		}
	}
	return ps
}

// State returns the non-trained tensors (batch-norm running stats)
// that must be serialised with the model.
func (g *Generator) State() []*nn.Param {
	var ps []*nn.Param
	add := func(b *nn.BatchNorm2d, name string) {
		if b == nil {
			return
		}
		ps = append(ps,
			&nn.Param{Name: name + ".rmean", Value: b.RunMean},
			&nn.Param{Name: name + ".rvar", Value: b.RunVar},
		)
	}
	for i, b := range g.bns {
		add(b, fmt.Sprintf("g.enc%d", i))
	}
	for j, b := range g.ubns {
		add(b, fmt.Sprintf("g.dec%d", j))
	}
	return ps
}

// Dropouts returns the generator's active dropout layers in decoder
// order, so checkpointing can record and restore their RNG cursors.
func (g *Generator) Dropouts() []*nn.Dropout {
	var ds []*nn.Dropout
	for _, d := range g.drops {
		if d != nil {
			ds = append(ds, d)
		}
	}
	return ds
}

// dropoutDraws returns, in Dropouts order, how many random draws each
// dropout layer makes per sample of a training forward: one per
// activation of its decoder block, ups[j].OutC channels at
// ImageSize >> (depth-1-j) pixels a side.
func (g *Generator) dropoutDraws() []int64 {
	var n []int64
	for j, d := range g.drops {
		if d != nil {
			side := int64(g.cfg.ImageSize >> uint(g.cfg.depth()-1-j))
			n = append(n, int64(g.ups[j].OutC)*side*side)
		}
	}
	return n
}

// concatC concatenates along the channel axis: [N,C1,H,W] ++ [N,C2,H,W].
func concatC(a, b *tensor.Tensor) *tensor.Tensor {
	n, c1, h, w := a.Shape[0], a.Shape[1], a.Shape[2], a.Shape[3]
	c2 := b.Shape[1]
	out := tensor.New(n, c1+c2, h, w)
	hw := h * w
	for i := 0; i < n; i++ {
		copy(out.Data[i*(c1+c2)*hw:], a.Data[i*c1*hw:(i+1)*c1*hw])
		copy(out.Data[i*(c1+c2)*hw+c1*hw:], b.Data[i*c2*hw:(i+1)*c2*hw])
	}
	return out
}

// splitC splits a channel-concatenated gradient back into its parts.
func splitC(d *tensor.Tensor, c1 int) (da, db *tensor.Tensor) {
	n, c, h, w := d.Shape[0], d.Shape[1], d.Shape[2], d.Shape[3]
	c2 := c - c1
	da = tensor.New(n, c1, h, w)
	db = tensor.New(n, c2, h, w)
	hw := h * w
	for i := 0; i < n; i++ {
		copy(da.Data[i*c1*hw:], d.Data[i*c*hw:i*c*hw+c1*hw])
		copy(db.Data[i*c2*hw:], d.Data[i*c*hw+c1*hw:(i+1)*c*hw])
	}
	return da, db
}

// Forward maps access images x [N,1,S,S] (and cache parameters params
// [N,CondDim] when conditioning is enabled) to synthetic miss images
// [N,1,S,S] in [-1,1].
//
// A training forward runs the batch as one pass and keeps what Backward
// reads. An eval forward (train false) writes no layer field, so it
// first brings the conv layers' packed weights up to date and then cuts
// the batch into min(GOMAXPROCS, N) contiguous sample ranges that run
// concurrently on this one generator (forwardSplit). Its result is
// bit-identical to the batch run as one pass: every eval op is per
// sample. Eval forwards on one generator may run concurrently with each
// other, but not with a training forward or a weight update.
func (g *Generator) Forward(x, params *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		return g.forward(x, params, true)
	}
	g.packWeights()
	return g.forwardSplit(x, params, runtime.GOMAXPROCS(0))
}

// convWeights returns the weights of the generator's conv layers, the
// params whose GEMM forms a sharded trainer packs.
func (g *Generator) convWeights() []*nn.Param {
	var ws []*nn.Param
	for _, c := range g.convs {
		ws = append(ws, c.W)
	}
	for _, u := range g.ups {
		ws = append(ws, u.W)
	}
	return ws
}

// packWeights brings every conv layer's packed weights up to the
// current version of its weight (nn.Conv2d.PackWeights), under a lock
// so that concurrent eval forwards do not rebuild a pack at once.
func (g *Generator) packWeights() {
	g.packMu.Lock()
	defer g.packMu.Unlock()
	for _, c := range g.convs {
		c.PackWeights()
	}
	for _, u := range g.ups {
		u.PackWeights()
	}
}

// forwardSplit runs an eval forward as min(parts, N) forwards over
// contiguous sample ranges of the batch, concurrently, each writing its
// rows of one output tensor. The split cannot change a bit: batch norm
// uses its running statistics, dropout is the identity, the
// activations, bias adds and col2im act on one sample's values, and
// each GEMM element sums over the depth only, in the same order
// whatever the number of columns (samples × positions) beside it.
func (g *Generator) forwardSplit(x, params *tensor.Tensor, parts int) *tensor.Tensor {
	n := x.Shape[0]
	if parts = min(parts, n); parts <= 1 {
		return g.forward(x, params, false)
	}
	condDim := g.cfg.CondDim
	if condDim > 0 {
		mustValidShape(params != nil, "core: generator requires cache parameters (CondDim > 0)")
		mustValidShape(params.Len() == n*condDim, "core: %d cache parameters for %d images of %d", params.Len(), n, condDim)
	}
	mustValidShape(len(x.Shape) == 4, "core: generator input shape %v, want [N 1 S S]", x.Shape)
	inSize := x.Len() / n
	outC := g.ups[len(g.ups)-1].OutC
	y := tensor.New(n, outC, x.Shape[2], x.Shape[3])
	outSize := y.Len() / n
	err := par.New(parts).Run(context.TODO(), parts, func(_ context.Context, i int) error {
		lo, hi := i*n/parts, (i+1)*n/parts
		xs := tensor.FromSlice(x.Data[lo*inSize:hi*inSize], hi-lo, x.Shape[1], x.Shape[2], x.Shape[3])
		var ps *tensor.Tensor
		if condDim > 0 {
			ps = tensor.FromSlice(params.Data[lo*condDim:hi*condDim], hi-lo, condDim)
		}
		ys := g.forward(xs, ps, false)
		mustValidShape(ys.Len() == (hi-lo)*outSize, "core: generator range output %v, want %d values", ys.Shape, (hi-lo)*outSize)
		copy(y.Data[lo*outSize:hi*outSize], ys.Data)
		return nil
	})
	// Ranges return no errors, so err can only be a captured panic:
	// re-raise it on the caller, as the unsplit forward would have.
	mustValidShape(err == nil, "core: generator forward: %v", err)
	return y
}

// forward is the layer sequence over the whole of x. Only a training
// forward (train true) writes the generator: it keeps the skips, batch
// size and conditioning flag Backward reads.
func (g *Generator) forward(x, params *tensor.Tensor, train bool) *tensor.Tensor {
	d := g.cfg.depth()
	n := x.Shape[0]
	skips := make([]*tensor.Tensor, 0, d-1)
	h := x
	for i := 0; i < d; i++ {
		h = g.convs[i].Forward(h, train)
		if g.bns[i] != nil {
			h = g.bns[i].Forward(h, train)
		}
		h = g.acts[i].Forward(h, train)
		if i < d-1 {
			skips = append(skips, h)
		}
	}
	condUsed := false
	if g.cfg.CondDim > 0 {
		mustValidShape(params != nil, "core: generator requires cache parameters (CondDim > 0)")
		p := params
		for _, l := range g.mlp {
			p = l.Forward(p, train)
		}
		bh := g.cfg.ImageSize >> uint(d)
		h = concatC(h, p.Reshape(n, g.cfg.CondChannels, bh, bh))
		condUsed = true
	}
	if train {
		g.skips, g.batch, g.condUsed = skips, n, condUsed
	}
	u := h
	for j := 0; j < d; j++ {
		u = g.ups[j].Forward(u, train)
		if j < d-1 {
			u = g.ubns[j].Forward(u, train)
			u = g.uacts[j].Forward(u, train)
			if g.drops[j] != nil {
				u = g.drops[j].Forward(u, train)
			}
			u = concatC(u, skips[d-2-j])
		}
	}
	return g.tanh.Forward(u, train)
}

// PrepareQuant calibrates int8 weight panels for every conv, transposed
// conv and dense layer so ForwardQuantized can run. Calibration is a
// pure function of the float32 weights (per-tensor symmetric scale), so
// it can be re-run at any time — after Load, after training — and the
// serialised model format is unchanged.
func (g *Generator) PrepareQuant() {
	for _, c := range g.convs {
		c.PrepareQuant()
	}
	for _, l := range g.mlp {
		if dn, ok := l.(*nn.Dense); ok {
			dn.PrepareQuant()
		}
	}
	for _, u := range g.ups {
		u.PrepareQuant()
	}
}

// ForwardQuantized is the int8 inference forward: the same graph as
// Forward in eval mode, with every conv/dense GEMM running through the
// quantized kernels, over the whole batch as one pass: activations are
// quantized per batch tensor, so a split would change the result.
// PrepareQuant must have been called first, and calls require external
// serialisation per model instance (the serve registry's per-entry
// mutex provides it).
func (g *Generator) ForwardQuantized(x, params *tensor.Tensor) *tensor.Tensor {
	d := g.cfg.depth()
	n := x.Shape[0]
	skips := make([]*tensor.Tensor, 0, d-1)
	h := x
	for i := 0; i < d; i++ {
		h = g.convs[i].ForwardQ8(h)
		if g.bns[i] != nil {
			h = g.bns[i].Forward(h, false)
		}
		h = g.acts[i].Forward(h, false)
		if i < d-1 {
			skips = append(skips, h)
		}
	}
	if g.cfg.CondDim > 0 {
		mustValidShape(params != nil, "core: generator requires cache parameters (CondDim > 0)")
		p := params
		for _, l := range g.mlp {
			if dn, ok := l.(*nn.Dense); ok {
				p = dn.ForwardQ8(p)
			} else {
				p = l.Forward(p, false)
			}
		}
		bh := g.cfg.ImageSize >> uint(d)
		h = concatC(h, p.Reshape(n, g.cfg.CondChannels, bh, bh))
	}
	u := h
	for j := 0; j < d; j++ {
		u = g.ups[j].ForwardQ8(u)
		if j < d-1 {
			u = g.ubns[j].Forward(u, false)
			u = g.uacts[j].Forward(u, false)
			if g.drops[j] != nil {
				u = g.drops[j].Forward(u, false)
			}
			u = concatC(u, skips[d-2-j])
		}
	}
	return g.tanh.Forward(u, false)
}

// Backward propagates dOut through the whole generator, accumulating
// parameter gradients, and returns the gradient with respect to x.
func (g *Generator) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	d := g.cfg.depth()
	ch := g.cfg.channels()
	du := g.tanh.Backward(dOut)
	// Decoder backward, accumulating skip gradients.
	dskips := make([]*tensor.Tensor, d-1)
	for j := d - 1; j >= 0; j-- {
		if j < d-1 {
			// Undo the skip concat: split off the skip part first.
			dmain, dskip := splitC(du, ch[d-2-j])
			si := d - 2 - j
			if dskips[si] == nil {
				dskips[si] = dskip
			} else {
				dskips[si].AddInPlace(dskip)
			}
			du = dmain
			if g.drops[j] != nil {
				du = g.drops[j].Backward(du)
			}
			du = g.uacts[j].Backward(du)
			du = g.ubns[j].Backward(du)
		}
		du = g.ups[j].Backward(du)
	}
	// Split off the conditioning gradient at the bottleneck.
	if g.condUsed {
		dmain, dcond := splitC(du, ch[d-1])
		du = dmain
		bh := g.cfg.ImageSize >> uint(d)
		dp := dcond.Reshape(g.batch, g.cfg.CondChannels*bh*bh)
		for i := len(g.mlp) - 1; i >= 0; i-- {
			dp = g.mlp[i].Backward(dp)
		}
	}
	// Encoder backward; each skip contributes where it was tapped.
	for i := d - 1; i >= 0; i-- {
		if i < d-1 && dskips[i] != nil {
			du.AddInPlace(dskips[i])
		}
		du = g.acts[i].Backward(du)
		if g.bns[i] != nil {
			du = g.bns[i].Backward(du)
		}
		du = g.convs[i].Backward(du)
	}
	return du
}
