package nn

import (
	"math/rand"

	"cachebox/internal/tensor"
)

// Dense is a fully connected layer y = xWᵀ + b over [N, In] input —
// used for CB-GAN's cache-parameter conditioning path (three dense
// layers feeding the U-Net bottleneck, paper §3.2.3).
type Dense struct {
	In, Out int
	W       *Param // [Out, In]
	B       *Param // [Out]

	x *tensor.Tensor // input of the last training forward

	qwt *tensor.QuantMat // transposed int8 weights [In, Out], set by PrepareQuant
}

// NewDense constructs the layer with Pix2Pix-style init.
func NewDense(rng *rand.Rand, name string, in, out int) *Dense {
	d := &Dense{In: in, Out: out, W: newParam(name+".w", out, in), B: newParam(name+".b", out)}
	InitConv(rng, d.W.Value)
	return d
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Forward implements Layer. x is [N, In]. Only a training forward
// keeps its input.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkShape("Dense input", x.Shape, -1, d.In)
	if train {
		d.x = x
	}
	y := tensor.MatMulABT(x, d.W.Value) // [N, Out]
	n := x.Shape[0]
	for i := 0; i < n; i++ {
		row := y.Data[i*d.Out : (i+1)*d.Out]
		for j := range row {
			row[j] += d.B.Value.Data[j]
		}
	}
	return y
}

// Backward implements Layer. It must follow a training Forward.
func (d *Dense) Backward(dy *tensor.Tensor) *tensor.Tensor {
	mustValidShape(d.x != nil, "nn: Dense.Backward without a training Forward")
	n := d.x.Shape[0]
	checkShape("Dense grad", dy.Shape, n, d.Out)
	// dW = dyᵀ × x.
	d.W.Grad.AddInPlace(tensor.MatMulATB(dy, d.x))
	for i := 0; i < n; i++ {
		row := dy.Data[i*d.Out : (i+1)*d.Out]
		for j, v := range row {
			d.B.Grad.Data[j] += v
		}
	}
	// dx = dy × W.
	return tensor.MatMul(dy, d.W.Value)
}
