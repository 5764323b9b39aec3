package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cachebox/internal/nn"
	"cachebox/internal/tensor"
)

// inputGuard wraps a layer and, at Backward, fails if the input it was
// given at Forward no longer holds what it held then. The conv layers
// read that input (or, for Conv2d, a bordered copy of it) to form their
// gradients, and ConvTranspose2d keeps it by reference.
type inputGuard struct {
	nn.Layer
	t     *testing.T
	name  string
	x, x0 *tensor.Tensor
}

func (g *inputGuard) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g.x, g.x0 = x, x.Clone()
	return g.Layer.Forward(x, train)
}

func (g *inputGuard) Backward(dy *tensor.Tensor) *tensor.Tensor {
	g.t.Helper()
	assertUnchanged(g.t, g.x, g.x0, g.name+" input")
	return g.Layer.Backward(dy)
}

func assertUnchanged(t *testing.T, got, want *tensor.Tensor, label string) {
	t.Helper()
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s changed between Forward and Backward at element %d: %v, was %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// TestNoLayerMutatesConvInputs runs one training step's worth of
// Forward and Backward through the generator and the discriminator, in
// a train step's order, and checks that nothing a conv layer read at
// Forward was written before its Backward: every discriminator conv
// input through a guard, and on the generator the input image, the
// cache parameters, the skip tensors (inputs of the encoder convs and
// halves of the decoder's concatenated inputs) and the output.
func TestNoLayerMutatesConvInputs(t *testing.T) {
	cfg := tinyConfig()
	rng := rand.New(rand.NewSource(12))
	g := NewGenerator(cfg, rng)
	d := NewDiscriminator(cfg, rng)
	guarded := 0
	for i, l := range d.net.Layers {
		if _, ok := l.(*nn.Conv2d); ok {
			d.net.Layers[i] = &inputGuard{Layer: l, t: t, name: fmt.Sprintf("discriminator layer %d", i)}
			guarded++
		}
	}
	if guarded < 3 {
		t.Fatalf("guarded %d discriminator convs, want every one of at least 3", guarded)
	}

	const n = 3
	x := tensor.New(n, 1, cfg.ImageSize, cfg.ImageSize)
	x.RandNormal(rng, 0, 1)
	params := tensor.New(n, cfg.CondDim)
	params.RandNormal(rng, 0, 1)
	x0, params0 := x.Clone(), params.Clone()

	fake := g.Forward(x, params, true)
	fake0 := fake.Clone()
	skips0 := make([]*tensor.Tensor, len(g.skips))
	for i, s := range g.skips {
		skips0[i] = s.Clone()
	}
	logits := d.Forward(x, fake, true)
	dLogits := tensor.New(logits.Shape...)
	dLogits.RandNormal(rng, 0, 1)
	_, dFake := d.Backward(dLogits)
	g.Backward(dFake)

	assertUnchanged(t, x, x0, "generator input")
	assertUnchanged(t, params, params0, "cache parameters")
	assertUnchanged(t, fake, fake0, "generator output")
	for i := range skips0 {
		assertUnchanged(t, g.skips[i], skips0[i], fmt.Sprintf("skip %d", i))
	}
}
