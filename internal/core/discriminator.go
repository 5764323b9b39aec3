package core

import (
	"fmt"
	"math/rand"

	"cachebox/internal/nn"
	"cachebox/internal/tensor"
)

// Discriminator is the PatchGAN (paper Fig. 5b): a small convolutional
// classifier over the channel-concatenation of access and miss images,
// emitting a truth map whose entries judge individual patches as real
// or synthetic.
type Discriminator struct {
	cfg Config
	net *nn.Sequential
	bns []*nn.BatchNorm2d
}

// NewDiscriminator builds the PatchGAN for cfg.
func NewDiscriminator(cfg Config, rng *rand.Rand) *Discriminator {
	d := &Discriminator{cfg: cfg}
	var layers []nn.Layer
	in := 2 // access ++ miss
	out := cfg.NDF
	for l := 0; l < cfg.DLayers; l++ {
		layers = append(layers, nn.NewConv2d(rng, fmt.Sprintf("d.conv%d", l), in, out, 4, 2, 1))
		if l > 0 {
			bn := nn.NewBatchNorm2d(fmt.Sprintf("d.conv%d.bn", l), out)
			layers = append(layers, bn)
			d.bns = append(d.bns, bn)
		}
		layers = append(layers, nn.NewLeakyReLU(0.2))
		in = out
		if out < cfg.NDF*8 {
			out *= 2
		}
	}
	// Penultimate stride-1 block plus the 1-channel logit head — the
	// PatchGAN receptive-field construction from Pix2Pix.
	layers = append(layers, nn.NewConv2d(rng, "d.penult", in, out, 4, 1, 1))
	bn := nn.NewBatchNorm2d("d.penult.bn", out)
	layers = append(layers, bn, nn.NewLeakyReLU(0.2))
	d.bns = append(d.bns, bn)
	layers = append(layers, nn.NewConv2d(rng, "d.head", out, 1, 4, 1, 1))
	d.net = nn.NewSequential(layers...)
	return d
}

// Params returns the trainable parameters.
func (d *Discriminator) Params() []*nn.Param { return d.net.Params() }

// convWeights returns the weights of the conv layers, the params whose
// GEMM forms a sharded trainer packs.
func (d *Discriminator) convWeights() []*nn.Param {
	var ws []*nn.Param
	for _, l := range d.net.Layers {
		if c, ok := l.(*nn.Conv2d); ok {
			ws = append(ws, c.W)
		}
	}
	return ws
}

// State returns the batch-norm running statistics.
func (d *Discriminator) State() []*nn.Param {
	var ps []*nn.Param
	for i, b := range d.bns {
		ps = append(ps,
			&nn.Param{Name: fmt.Sprintf("d.bn%d.rmean", i), Value: b.RunMean},
			&nn.Param{Name: fmt.Sprintf("d.bn%d.rvar", i), Value: b.RunVar},
		)
	}
	return ps
}

// Forward scores (access, miss) image pairs: x and y are [N,1,S,S];
// the result is a patch logit map.
func (d *Discriminator) Forward(x, y *tensor.Tensor, train bool) *tensor.Tensor {
	return d.net.Forward(concatC(x, y), train)
}

// Backward propagates the truth-map gradient and returns the gradients
// with respect to the access and miss inputs.
func (d *Discriminator) Backward(dLogits *tensor.Tensor) (dx, dy *tensor.Tensor) {
	din := d.net.Backward(dLogits)
	return splitC(din, 1)
}
