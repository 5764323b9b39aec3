package nn

import (
	"math"

	"cachebox/internal/tensor"
)

// InstanceNorm2d normalises each (sample, channel) plane independently
// — the normalisation many Pix2Pix variants substitute for batch norm
// when batches are small. Affine parameters as in BatchNorm2d; no
// running statistics are needed (inference normalises per instance).
type InstanceNorm2d struct {
	C   int
	Eps float64

	Gamma, Beta *Param

	xhat   *tensor.Tensor
	invstd []float64
	n, hw  int
}

// NewInstanceNorm2d builds the layer for c channels.
func NewInstanceNorm2d(name string, c int) *InstanceNorm2d {
	l := &InstanceNorm2d{
		C: c, Eps: 1e-5,
		Gamma: newParam(name+".gamma", c),
		Beta:  newParam(name+".beta", c),
	}
	l.Gamma.Value.Fill(1)
	return l
}

// Params implements Layer.
func (l *InstanceNorm2d) Params() []*Param { return []*Param{l.Gamma, l.Beta} }

// Forward implements Layer. x is [N, C, H, W]. Only a training
// forward keeps what Backward reads.
func (l *InstanceNorm2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkShape("InstanceNorm2d input", x.Shape, -1, l.C, -1, -1)
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	hw := h * w
	y := tensor.New(x.Shape...)
	if train {
		l.xhat = tensor.New(x.Shape...)
		if cap(l.invstd) < n*l.C {
			l.invstd = make([]float64, n*l.C)
		}
		l.invstd = l.invstd[:n*l.C]
		l.n, l.hw = n, hw
	}
	for in := 0; in < n; in++ {
		for c := 0; c < l.C; c++ {
			off := (in*l.C + c) * hw
			var mean float64
			for i := 0; i < hw; i++ {
				mean += float64(x.Data[off+i])
			}
			mean /= float64(hw)
			var variance float64
			for i := 0; i < hw; i++ {
				d := float64(x.Data[off+i]) - mean
				variance += d * d
			}
			variance /= float64(hw)
			invstd := 1 / math.Sqrt(variance+l.Eps)
			if train {
				l.invstd[in*l.C+c] = invstd
			}
			g, b := float64(l.Gamma.Value.Data[c]), float64(l.Beta.Value.Data[c])
			for i := 0; i < hw; i++ {
				xh := (float64(x.Data[off+i]) - mean) * invstd
				if train {
					l.xhat.Data[off+i] = float32(xh)
				}
				y.Data[off+i] = float32(g*xh + b)
			}
		}
	}
	return y
}

// Backward implements Layer.
func (l *InstanceNorm2d) Backward(dy *tensor.Tensor) *tensor.Tensor {
	mustValidShape(l.xhat != nil, "nn: InstanceNorm2d.Backward without a training Forward")
	n, hw := l.n, l.hw
	dx := tensor.New(dy.Shape...)
	m := float64(hw)
	for in := 0; in < n; in++ {
		for c := 0; c < l.C; c++ {
			off := (in*l.C + c) * hw
			var sumDy, sumDyXhat float64
			for i := 0; i < hw; i++ {
				d := float64(dy.Data[off+i])
				sumDy += d
				sumDyXhat += d * float64(l.xhat.Data[off+i])
			}
			l.Beta.Grad.Data[c] += float32(sumDy)
			l.Gamma.Grad.Data[c] += float32(sumDyXhat)
			g := float64(l.Gamma.Value.Data[c])
			k := g * l.invstd[in*l.C+c] / m
			for i := 0; i < hw; i++ {
				d := float64(dy.Data[off+i])
				xh := float64(l.xhat.Data[off+i])
				dx.Data[off+i] = float32(k * (m*d - sumDy - xh*sumDyXhat))
			}
		}
	}
	return dx
}

// SGD is stochastic gradient descent with optional momentum, for
// ablating the optimiser choice.
type SGD struct {
	LR       float64
	Momentum float64
	params   []*Param
	vel      []*tensor.Tensor
}

// NewSGD builds the optimiser over params.
func NewSGD(params []*Param, lr, momentum float64) *SGD {
	s := &SGD{LR: lr, Momentum: momentum, params: params}
	for _, p := range params {
		s.vel = append(s.vel, tensor.New(p.Value.Shape...))
	}
	return s
}

// Step applies one update from the accumulated gradients and clears
// them.
func (s *SGD) Step() {
	for i, p := range s.params {
		v := s.vel[i]
		for j, g := range p.Grad.Data {
			nv := float32(s.Momentum)*v.Data[j] + g
			v.Data[j] = nv
			p.Value.Data[j] -= float32(s.LR) * nv
		}
		p.version++
		p.Grad.Zero()
	}
}

// ClipGradNorm scales all gradients so their global L2 norm does not
// exceed maxNorm; it returns the pre-clip norm. Standard GAN stability
// tooling.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += float64(g) * float64(g)
		}
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		scale := float32(maxNorm / norm)
		for _, p := range params {
			p.Grad.Scale(scale)
		}
	}
	return norm
}
