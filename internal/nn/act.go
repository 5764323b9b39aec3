package nn

import (
	"math"
	"math/rand"

	"cachebox/internal/tensor"
)

// ReLU is max(0, x).
type ReLU struct {
	mask []bool // which inputs of the last training forward passed
}

// Forward implements Layer. Only a training forward keeps its mask.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := x.Clone()
	for i, v := range y.Data {
		if v <= 0 {
			y.Data[i] = 0
		}
	}
	if train {
		r.mask = growMask(r.mask, len(x.Data))
		for i, v := range x.Data {
			r.mask[i] = !(v <= 0)
		}
	}
	return y
}

// growMask returns mask resliced to n, reallocated only when too short.
func growMask(mask []bool, n int) []bool {
	if cap(mask) < n {
		return make([]bool, n)
	}
	return mask[:n]
}

// Backward implements Layer.
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := dy.Clone()
	for i := range dx.Data {
		if !r.mask[i] {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// LeakyReLU is x for x>0 and Alpha*x otherwise (Pix2Pix encoder uses
// Alpha=0.2).
type LeakyReLU struct {
	Alpha float32
	mask  []bool // which inputs of the last training forward were ≥ 0
}

// NewLeakyReLU returns a LeakyReLU with the given slope.
func NewLeakyReLU(alpha float32) *LeakyReLU { return &LeakyReLU{Alpha: alpha} }

// Forward implements Layer. Only a training forward keeps its mask.
func (r *LeakyReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := x.Clone()
	for i, v := range y.Data {
		if v < 0 {
			y.Data[i] = v * r.Alpha
		}
	}
	if train {
		r.mask = growMask(r.mask, len(x.Data))
		for i, v := range x.Data {
			r.mask[i] = !(v < 0)
		}
	}
	return y
}

// Backward implements Layer.
func (r *LeakyReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := dy.Clone()
	for i := range dx.Data {
		if !r.mask[i] {
			dx.Data[i] *= r.Alpha
		}
	}
	return dx
}

// Params implements Layer.
func (r *LeakyReLU) Params() []*Param { return nil }

// Tanh is the hyperbolic tangent (the Pix2Pix generator's output
// activation).
type Tanh struct {
	y *tensor.Tensor // output of the last training forward
}

// Forward implements Layer. Only a training forward keeps its output.
func (t *Tanh) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := x.Clone()
	for i, v := range y.Data {
		y.Data[i] = float32(math.Tanh(float64(v)))
	}
	if train {
		t.y = y
	}
	return y
}

// Backward implements Layer.
func (t *Tanh) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := dy.Clone()
	for i, v := range t.y.Data {
		dx.Data[i] *= 1 - v*v
	}
	return dx
}

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// Dropout zeroes each activation with probability P during training,
// scaling survivors by 1/(1-P) (inverted dropout); inference is the
// identity. Pix2Pix uses P=0.5 in the inner decoder blocks.
type Dropout struct {
	P    float64
	rng  *rand.Rand
	seed int64
	// draws counts Float64 calls consumed from rng, so a training
	// checkpoint can record the stream position and SeekTo can replay
	// it on resume (the rand.Rand internals are not serialisable).
	draws int64

	mask []float32 // keep factors of the last training forward; nil when P <= 0
}

// NewDropout builds a dropout layer with its own RNG for determinism.
func NewDropout(p float64, seed int64) *Dropout {
	return &Dropout{P: p, rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Cursor returns how many random draws the layer has consumed — the
// RNG stream position to store in a training checkpoint.
func (d *Dropout) Cursor() int64 { return d.draws }

// Reseed restarts the layer's RNG stream from a new seed at position
// zero. Data-parallel training derives one seed per (optimiser step,
// shard, layer) and reseeds each replica's dropout layers before the
// shard's forward pass, which makes the masks a pure function of the
// step coordinates — independent of worker count and O(1) to restore
// on resume (unlike SeekTo, which replays the whole stream).
func (d *Dropout) Reseed(seed int64) {
	d.rng = rand.New(rand.NewSource(seed))
	d.seed = seed
	d.draws = 0
}

// SeekTo rewinds the layer's RNG to its seed and fast-forwards to
// stream position n, so training resumed from a checkpoint sees the
// same dropout masks as an uninterrupted run.
func (d *Dropout) SeekTo(n int64) {
	d.rng = rand.New(rand.NewSource(d.seed))
	for i := int64(0); i < n; i++ {
		d.rng.Float64()
	}
	d.draws = n
}

// Forward implements Layer. An eval forward is the identity and
// writes nothing.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return x
	}
	if d.P <= 0 {
		d.mask = nil
		return x
	}
	y := x.Clone()
	if cap(d.mask) < len(y.Data) {
		d.mask = make([]float32, len(y.Data))
	}
	d.mask = d.mask[:len(y.Data)]
	keep := float32(1 / (1 - d.P))
	d.draws += int64(len(y.Data))
	for i := range y.Data {
		if d.rng.Float64() < d.P {
			d.mask[i] = 0
			y.Data[i] = 0
		} else {
			d.mask[i] = keep
			y.Data[i] *= keep
		}
	}
	return y
}

// Backward implements Layer.
func (d *Dropout) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return dy
	}
	dx := dy.Clone()
	for i := range dx.Data {
		dx.Data[i] *= d.mask[i]
	}
	return dx
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }
