package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"cachebox/internal/heatmap"
)

// The quantization accuracy contract: int8 inference is an
// OPTIMISATION, not an accuracy change. A seed-pinned tiny model is
// exported and reloaded, then float32 and int8 predictions over a
// fixed window set are compared on two axes with documented
// thresholds:
//
//   - max per-pixel divergence ≤ quantMaxPixelDiv (decoded miss-count
//     units; the codec maps [-1,1] activations onto a MissPixelCap=48
//     pixel range, so 1.0 is ~2% of full scale);
//   - mean absolute hit-rate delta ≤ quantMaxHitRateMAE (hit-rate
//     units, i.e. 0.01 = one percentage point).
//
// Measured divergence on this pinned seed is ~0.006 pixels / ~0.0002
// hit-rate; the thresholds leave ~15× headroom for cross-platform
// rounding drift without letting a real regression (a broken scale, a
// saturating layer) through.
const (
	quantMaxPixelDiv   = 0.1
	quantMaxHitRateMAE = 0.003
)

// quantWindows builds the fixed evaluation window set: deterministic
// synthetic access heatmaps in the toy-filter style of the training
// tests.
func quantWindows(n, size int) []*heatmap.Heatmap {
	rng := rand.New(rand.NewSource(77))
	out := make([]*heatmap.Heatmap, n)
	for i := range out {
		a := heatmap.NewHeatmap("qwin", size, size)
		for j := 0; j < size*size/3; j++ {
			y, x := rng.Intn(size), rng.Intn(size)
			a.Pix[y*size+x] += 8
		}
		out[i] = a
	}
	return out
}

// windowHitRate is the scalar the serving layer reports per window:
// 1 − missSum/accessSum with negative predicted pixels clamped.
func windowHitRate(access, miss *heatmap.Heatmap) float64 {
	var acc, ms float64
	for _, v := range access.Pix {
		acc += float64(v)
	}
	for _, v := range miss.Pix {
		if v > 0 {
			ms += float64(v)
		}
	}
	if acc == 0 {
		return 0
	}
	return 1 - ms/acc
}

func TestQuantizedPredictAccuracy(t *testing.T) {
	m, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through export so the comparison covers the exact
	// artifact a registry would serve.
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	access := quantWindows(6, m.Cfg.ImageSize)
	params := []float32{0.375, 0.4}
	f32 := m.Predict(access, params, 3)
	if loaded.Quantized() {
		t.Fatal("fresh model reports quantized")
	}
	loaded.Quantize()
	if !loaded.Quantized() {
		t.Fatal("Quantize did not mark the model")
	}
	q8 := loaded.Predict(access, params, 3)

	var maxDiv float64
	var mae float64
	for i := range access {
		for j := range f32[i].Pix {
			d := math.Abs(float64(f32[i].Pix[j] - q8[i].Pix[j]))
			if d > maxDiv {
				maxDiv = d
			}
		}
		mae += math.Abs(windowHitRate(access[i], f32[i]) - windowHitRate(access[i], q8[i]))
	}
	mae /= float64(len(access))
	t.Logf("max per-pixel divergence %.4f, hit-rate MAE delta %.5f", maxDiv, mae)
	if maxDiv > quantMaxPixelDiv {
		t.Fatalf("max per-pixel divergence %.4f exceeds %.2f", maxDiv, quantMaxPixelDiv)
	}
	if mae > quantMaxHitRateMAE {
		t.Fatalf("hit-rate MAE delta %.5f exceeds %.3f", mae, quantMaxHitRateMAE)
	}
}

// TestQuantizeDeterministic pins the calibration claim the serve layer
// depends on: quantizing two independent loads of the same artifact
// yields bit-identical predictions (calibration is a pure function of
// the weights), and quantized predict is repeatable for a fixed batch.
// Note what is deliberately NOT claimed: batch-size invariance.
// Activation scales are computed dynamically per batch tensor, so the
// batch composition participates in rounding — the accuracy test above
// is the contract bounding that effect.
func TestQuantizeDeterministic(t *testing.T) {
	m, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	m1, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	m1.Quantize()
	m2.Quantize()
	access := quantWindows(3, m.Cfg.ImageSize)
	params := []float32{0.375, 0.4}
	o1 := m1.Predict(access, params, 3)
	o2 := m2.Predict(access, params, 3)
	o3 := m1.Predict(access, params, 3) // repeat on the same instance
	for i := range o1 {
		for j := range o1[i].Pix {
			if math.Float32bits(o1[i].Pix[j]) != math.Float32bits(o2[i].Pix[j]) {
				t.Fatalf("window %d pixel %d differs across loads", i, j)
			}
			if math.Float32bits(o1[i].Pix[j]) != math.Float32bits(o3[i].Pix[j]) {
				t.Fatalf("window %d pixel %d differs across repeats", i, j)
			}
		}
	}
}

// benchPredict is the batched-inference microbenchmark pair: the same
// window set predicted through the float32 blocked kernel and through
// the int8 quantized path, reported as windows/s. The bench/ harness
// measures the same ratio at scale (core.predict_q8_b32_windows_per_s
// over core.predict_b32_windows_per_s on the traced offline-eval run).
func benchPredict(b *testing.B, quantize bool) {
	m, err := NewModel(tinyConfig())
	if err != nil {
		b.Fatal(err)
	}
	if quantize {
		m.Quantize()
	}
	const windows = 32
	access := quantWindows(windows, m.Cfg.ImageSize)
	params := []float32{0.375, 0.4}
	m.Predict(access[:4], params, 2) // warm up layer scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(access, params, 16)
	}
	b.ReportMetric(float64(windows*b.N)/b.Elapsed().Seconds(), "windows/s")
}

func BenchmarkPredictFloat32(b *testing.B)   { benchPredict(b, false) }
func BenchmarkPredictQuantized(b *testing.B) { benchPredict(b, true) }

// TestQuantizedConditionedPredict covers the serving entry point: the
// quantized path must flow through PredictConditioned (the batcher's
// hook) and respond to conditioning.
func TestQuantizedConditionedPredict(t *testing.T) {
	m, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.Quantize()
	access := quantWindows(2, m.Cfg.ImageSize)
	conds := []ConditionVec{{Sets: 64, Ways: 4}, {Sets: 512, Ways: 16}}
	out, err := m.PredictConditioned(access, conds)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d outputs", len(out))
	}
	for _, hm := range out {
		for _, v := range hm.Pix {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatal("quantized prediction produced non-finite pixels")
			}
		}
	}
}
