// Package nn is a from-scratch neural network library: convolutional
// and dense layers with manual backpropagation, batch normalisation,
// the activations, losses and the Adam optimiser needed to train the
// paper's CB-GAN (a Pix2Pix-style conditional GAN) on the CPU, plus gob
// serialisation of model weights.
//
// A training forward (train == true) caches what its Backward reads,
// so a layer instance serves one training forward/backward in flight
// at a time. An eval forward writes no field of any layer: it leases
// its scratch from the tensor arena and keeps nothing, so eval
// forwards of one layer may run concurrently, which is how the CB-GAN
// generator spreads one inference batch over every core (paper RQ5).
package nn

import (
	"fmt"
	"math/rand"

	"cachebox/internal/tensor"
)

// Param is a trainable tensor together with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	// version counts the in-place updates of Value after construction:
	// Adam.Step and Restore each bump it, and they are its only
	// writers. A conv weight's packed GEMM forms (packs) record the
	// version they were packed from and are not read once it moves.
	// For a param that shares another's Value (Share), the owner's
	// version governs the shared packs; the sharer's own never moves,
	// since no optimiser steps a sharer.
	version uint64

	// owner is the param whose Value, version and packs this one
	// shares (Share); nil for a param that owns its Value.
	owner *Param
	// packs holds the weight's GEMM A forms packed ahead, indexed by
	// weightForm (see Param.pack). Only an owner's packs are read.
	packs [2]weightPack
}

// Share makes p read owner's Value, so that both see one set of
// weights, and owner's packed GEMM forms of it, so that a pack built
// once serves every sharer. Only the owner may be stepped or restored:
// its version is the one a shared pack is checked against. p keeps
// its own Grad.
func (p *Param) Share(owner *Param) {
	p.Value, p.owner = owner.Value, owner.packOwner()
}

// packOwner returns the param whose version and packs govern p's
// Value: p's owner, or p itself.
func (p *Param) packOwner() *Param {
	if p.owner != nil {
		return p.owner
	}
	return p
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, Value: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// Layer is one differentiable module.
type Layer interface {
	// Forward computes the layer's output. train enables
	// training-only behaviour (batch statistics, dropout).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates the output gradient, accumulating parameter
	// gradients and returning the input gradient. It must follow a
	// Forward call with the matching input.
	Backward(dy *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly none).
	Params() []*Param
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(dy *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	return dy
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads clears the gradients of all params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.Grad.Zero()
	}
}

// InitConv fills w with the Pix2Pix initialisation N(0, 0.02).
func InitConv(rng *rand.Rand, w *tensor.Tensor) { w.RandNormal(rng, 0, 0.02) }

// mustValidShape is nn's registered invariant helper (allowlisted by
// cbx-lint's library-panic analyzer, like tensor's helper of the same
// name): it panics with the formatted message when ok is false. Use it
// for programmer-error invariants — size mismatches, Backward before
// Forward — that returning an error would only defer to a worse crash.
func mustValidShape(ok bool, format string, args ...any) {
	if !ok {
		panic(fmt.Sprintf(format, args...))
	}
}

// checkShape panics with a helpful message when dims mismatch. It is
// the second registered invariant helper the linter allowlists.
func checkShape(what string, got []int, want ...int) {
	ok := len(got) == len(want)
	if ok {
		for i := range want {
			if want[i] >= 0 && got[i] != want[i] {
				ok = false
				break
			}
		}
	}
	if !ok {
		panic(fmt.Sprintf("nn: %s shape %v, want %v", what, got, want))
	}
}

// checkConvInput checks a convolution input [N, inC, H, W] whose
// padded height and width must each hold the kernel: a smaller image
// has no output position, and a window hanging off its border would
// read outside the bordered copy. It panics through checkShape.
func checkConvInput(what string, got []int, inC, kernel, pad int) {
	checkShape(what, got, -1, inC, -1, -1)
	if got[2]+2*pad < kernel || got[3]+2*pad < kernel {
		minSide := max(kernel-2*pad, 1)
		checkShape(fmt.Sprintf("%s (padded by %d for a %d×%d kernel, at least %d×%d)", what, pad, kernel, kernel, minSide, minSide),
			got, got[0], inC, minSide, minSide)
	}
}

// ensureTensor returns a tensor of the given shape, reusing t's backing
// array when its capacity suffices (contents are stale — the caller
// must overwrite the full extent, which tensor.Pad does). Conv2d keeps
// its training forward's bordered input in one, so a steady-state train
// loop stops allocating it after the first step.
func ensureTensor(t *tensor.Tensor, shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if t != nil && cap(t.Data) >= n {
		return tensor.FromSlice(t.Data[:n], shape...)
	}
	return tensor.New(shape...)
}

// nchwToCK permutes x [N,C,HW] into out [C, N*HW] so the whole batch
// shares one GEMM; ckToNCHW is its inverse.
func nchwToCK(x *tensor.Tensor, n, c, hw int) *tensor.Tensor {
	out := tensor.New(c, n*hw)
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			src := x.Data[(in*c+ic)*hw : (in*c+ic+1)*hw]
			copy(out.Data[ic*n*hw+in*hw:], src)
		}
	}
	return out
}

func ckToNCHW(x *tensor.Tensor, n, c, hw int) *tensor.Tensor {
	out := tensor.New(n, c, hw)
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			src := x.Data[ic*n*hw+in*hw : ic*n*hw+(in+1)*hw]
			copy(out.Data[(in*c+ic)*hw:], src)
		}
	}
	return out
}
