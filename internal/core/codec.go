package core

import (
	"context"
	"math"

	"cachebox/internal/heatmap"
	"cachebox/internal/par"
	"cachebox/internal/tensor"
)

// Codec maps heatmap pixel counts to the [-1, 1] range the GAN
// operates in, and back. The mapping is a saturating power transform:
//
//	encode(v) = 2·(min(v, Cap)/Cap)^(1/Gamma) − 1
//	decode(p) = Cap·((p+1)/2)^Gamma
//
// Gamma = 1 is linear; Gamma = 2 (a square-root encode) expands the
// dynamic range of small counts — important for miss heatmaps, which
// are sparse — and quadratically suppresses near-zero background bias
// at decode time. The paper scales pixel values by two before feeding
// the model; Cap and Gamma play the same range-shaping role while
// keeping decode exactly invertible below saturation, which the
// hit-rate computation (summing decoded miss pixels) relies on.
//
// A Gamma <= 0, as in the zero Codec{Cap: c}, is read as 1 (linear).
// A model's codecs take Gamma from its Config, which Validate requires
// to be positive, so that reading never applies to a model.
type Codec struct {
	Cap   float32
	Gamma float64
}

func (c Codec) gamma() float64 {
	if c.Gamma <= 0 {
		return 1
	}
	return c.Gamma
}

// EncodeValue maps one count to [-1, 1].
func (c Codec) EncodeValue(v float32) float32 {
	if v < 0 {
		v = 0
	}
	if v > c.Cap {
		v = c.Cap
	}
	frac := float64(v / c.Cap)
	if g := c.gamma(); g != 1 {
		frac = math.Pow(frac, 1/g)
	}
	return float32(frac*2 - 1)
}

// DecodeValue maps one [-1, 1] activation back to a count.
func (c Codec) DecodeValue(p float32) float32 {
	frac := float64(p+1) / 2
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	if g := c.gamma(); g != 1 {
		frac = math.Pow(frac, g)
	}
	return float32(frac) * c.Cap
}

// Encode converts a heatmap into a [1, H, W] tensor in [-1, 1].
func (c Codec) Encode(m *heatmap.Heatmap) *tensor.Tensor {
	t := tensor.New(1, m.H, m.W)
	for i, v := range m.Pix {
		t.Data[i] = c.EncodeValue(v)
	}
	return t
}

// EncodeBatch packs heatmaps into an [N, 1, H, W] tensor. Images are
// encoded concurrently on the worker pool: image i writes only its own
// [i·h·w, (i+1)·h·w) window, so the packed tensor is byte-identical to
// a serial encode.
func (c Codec) EncodeBatch(ms []*heatmap.Heatmap) *tensor.Tensor {
	mustValidShape(len(ms) > 0, "core: empty batch")
	h, w := ms[0].H, ms[0].W
	for _, m := range ms {
		mustValidShape(m.H == h && m.W == w, "core: mixed heatmap sizes in batch")
	}
	t := tensor.New(len(ms), 1, h, w)
	err := par.ForEach(context.Background(), 0, ms,
		func(_ context.Context, i int, m *heatmap.Heatmap) error {
			enc := c.Encode(m)
			copy(t.Data[i*h*w:(i+1)*h*w], enc.Data)
			return nil
		})
	// The per-image task cannot fail; a non-nil error is a captured
	// panic from a programming error — re-raise it.
	mustValidShape(err == nil, "core: encode batch: %v", err)
	return t
}

// Decode converts one [-1, 1] image plane (h*w values) back into a
// heatmap of counts in [0, Cap].
func (c Codec) Decode(name string, data []float32, h, w int) *heatmap.Heatmap {
	m := heatmap.NewHeatmap(name, h, w)
	for i, p := range data {
		m.Pix[i] = c.DecodeValue(p)
	}
	return m
}

// DecodeBatch unpacks an [N, 1, H, W] tensor into heatmaps. Each image
// window decodes into its own result slot, concurrently and
// deterministically (see EncodeBatch).
func (c Codec) DecodeBatch(name string, t *tensor.Tensor) []*heatmap.Heatmap {
	n, h, w := t.Shape[0], t.Shape[2], t.Shape[3]
	out := make([]*heatmap.Heatmap, n)
	err := par.New(0).Run(context.Background(), n, func(_ context.Context, i int) error {
		out[i] = c.Decode(name, t.Data[i*h*w:(i+1)*h*w], h, w)
		out[i].Index = i
		return nil
	})
	mustValidShape(err == nil, "core: decode batch: %v", err)
	return out
}
