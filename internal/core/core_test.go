package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"os"
	"testing"

	"cachebox/internal/cachesim"
	"cachebox/internal/heatmap"
	"cachebox/internal/tensor"
)

// tinyConfig is small enough for fast unit tests.
func tinyConfig() Config {
	c := DefaultConfig()
	c.ImageSize = 16
	c.NGF = 4
	c.NDF = 4
	c.DLayers = 2
	c.CondHidden = 8
	c.CondChannels = 4
	c.Seed = 3
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := PaperConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Config){
		func(c *Config) { c.ImageSize = 0 },
		func(c *Config) { c.ImageSize = 48 },
		func(c *Config) { c.NGF = 0 },
		func(c *Config) { c.Depth = 99 },
		func(c *Config) { c.DLayers = 0 },
		func(c *Config) { c.CondDim = -1 },
		func(c *Config) { c.CondDim = 2; c.CondChannels = 0 },
		func(c *Config) { c.Lambda = -1 },
		func(c *Config) { c.PixelCap = 0 },
		// Values every comparison lets through when it is false on NaN,
		// and a dropout probability whose keep factor 1/(1-P) is
		// infinite or negative.
		func(c *Config) { c.DropoutP = 1 },
		func(c *Config) { c.DropoutP = -0.5 },
		func(c *Config) { c.DropoutP = math.NaN() },
		func(c *Config) { c.PixelCap = float32(math.NaN()) },
		func(c *Config) { c.PixelCap = float32(math.Inf(1)) },
		func(c *Config) { c.MissPixelCap = float32(math.Inf(1)) },
		func(c *Config) { c.MissPixelCap = float32(math.NaN()) },
		func(c *Config) { c.Lambda = math.NaN() },
		func(c *Config) { c.Lambda = math.Inf(1) },
		func(c *Config) { c.LR = -1 },
		func(c *Config) { c.LR = math.NaN() },
		func(c *Config) { c.LR = math.Inf(1) },
		func(c *Config) { c.Gamma = math.NaN() },
		func(c *Config) { c.Gamma = math.Inf(-1) },
		func(c *Config) { c.Gamma = 0 },
		func(c *Config) { c.Gamma = -2 },
	}
	for i, mod := range bads {
		c := DefaultConfig()
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	goods := []func(*Config){
		func(c *Config) { c.DropoutP = 0 },
		func(c *Config) { c.DropoutP = 0.99 },
		func(c *Config) { c.Lambda = 0 },
		func(c *Config) { c.LR = 0 }, // the Pix2Pix default
	}
	for i, mod := range goods {
		c := DefaultConfig()
		mod(&c)
		if err := c.Validate(); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}
}

func TestChannelsSchedule(t *testing.T) {
	c := DefaultConfig()
	c.ImageSize = 64
	c.NGF = 16
	ch := c.channels()
	want := []int{16, 32, 64, 128, 128, 128}
	if len(ch) != len(want) {
		t.Fatalf("channels = %v", ch)
	}
	for i := range want {
		if ch[i] != want[i] {
			t.Fatalf("channels = %v, want %v", ch, want)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	c := Codec{Cap: 64}
	m := heatmap.NewHeatmap("x", 4, 4)
	m.Set(0, 0, 0)
	m.Set(1, 1, 10)
	m.Set(2, 2, 64)
	m.Set(3, 3, 100) // saturates
	enc := c.Encode(m)
	if enc.Data[0] != -1 {
		t.Fatalf("encode(0) = %v, want -1", enc.Data[0])
	}
	dec := c.Decode("y", enc.Data, 4, 4)
	if math.Abs(float64(dec.At(1, 1)-10)) > 1e-4 {
		t.Fatalf("decode(encode(10)) = %v", dec.At(1, 1))
	}
	if dec.At(3, 3) != 64 {
		t.Fatalf("saturated decode = %v, want 64", dec.At(3, 3))
	}
}

func TestCodecBatch(t *testing.T) {
	c := Codec{Cap: 32}
	a := heatmap.NewHeatmap("a", 4, 4)
	b := heatmap.NewHeatmap("b", 4, 4)
	a.Set(0, 0, 16)
	b.Set(3, 3, 32)
	batch := c.EncodeBatch([]*heatmap.Heatmap{a, b})
	if batch.Shape[0] != 2 || batch.Shape[1] != 1 {
		t.Fatalf("batch shape %v", batch.Shape)
	}
	out := c.DecodeBatch("o", batch)
	if math.Abs(float64(out[0].At(0, 0)-16)) > 1e-4 || math.Abs(float64(out[1].At(3, 3)-32)) > 1e-4 {
		t.Fatal("batch round trip broken")
	}
}

func TestCacheParamsNormalised(t *testing.T) {
	p := CacheParams(cachesim.Config{Sets: 64, Ways: 12})
	if math.Abs(float64(p[0])-6.0/16) > 1e-6 {
		t.Fatalf("sets param = %v", p[0])
	}
	if p[1] <= 0 || p[1] >= 1 {
		t.Fatalf("ways param = %v out of (0,1)", p[1])
	}
	// Distinct configs must get distinct parameters.
	q := CacheParams(cachesim.Config{Sets: 128, Ways: 12})
	if q[0] == p[0] {
		t.Fatal("sets parameter does not discriminate")
	}
}

func TestGeneratorShapes(t *testing.T) {
	cfg := tinyConfig()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 1, 16, 16)
	p := tensor.New(2, 2)
	y := m.G.Forward(x, p, false)
	if y.Shape[0] != 2 || y.Shape[1] != 1 || y.Shape[2] != 16 || y.Shape[3] != 16 {
		t.Fatalf("generator output %v", y.Shape)
	}
	// Output in [-1, 1] (tanh).
	for _, v := range y.Data {
		if v < -1 || v > 1 {
			t.Fatalf("output %v outside [-1,1]", v)
		}
	}
}

func TestGeneratorRequiresParamsWhenConditioned(t *testing.T) {
	m, _ := NewModel(tinyConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("nil params accepted by conditioned generator")
		}
	}()
	m.G.Forward(tensor.New(1, 1, 16, 16), nil, false)
}

func TestUnconditionedGenerator(t *testing.T) {
	cfg := tinyConfig()
	cfg.CondDim = 0 // the paper's RQ4 combined-model variant
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	y := m.G.Forward(tensor.New(1, 1, 16, 16), nil, false)
	if y.Shape[2] != 16 {
		t.Fatalf("shape %v", y.Shape)
	}
}

func TestConditioningChangesOutput(t *testing.T) {
	m, _ := NewModel(tinyConfig())
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(1, 1, 16, 16)
	x.RandNormal(rng, 0, 0.5)
	p1 := tensor.FromSlice([]float32{0.2, 0.3}, 1, 2)
	p2 := tensor.FromSlice([]float32{0.9, 0.9}, 1, 2)
	y1 := m.G.Forward(x.Clone(), p1, false)
	y2 := m.G.Forward(x.Clone(), p2, false)
	var diff float64
	for i := range y1.Data {
		diff += math.Abs(float64(y1.Data[i] - y2.Data[i]))
	}
	if diff == 0 {
		t.Fatal("cache parameters have no effect on the generator output")
	}
}

func TestDiscriminatorShapesAndBackward(t *testing.T) {
	cfg := tinyConfig()
	m, _ := NewModel(cfg)
	rng := rand.New(rand.NewSource(6))
	x := tensor.New(2, 1, 16, 16)
	y := tensor.New(2, 1, 16, 16)
	x.RandNormal(rng, 0, 1)
	y.RandNormal(rng, 0, 1)
	logits := m.D.Forward(x, y, true)
	if logits.Shape[0] != 2 || logits.Shape[1] != 1 {
		t.Fatalf("logits shape %v", logits.Shape)
	}
	if logits.Shape[2] <= 1 {
		t.Fatalf("patch map degenerate: %v", logits.Shape)
	}
	g := tensor.New(logits.Shape...)
	g.Fill(1)
	dx, dy := m.D.Backward(g)
	if dx.Shape[1] != 1 || dy.Shape[1] != 1 || dx.Shape[2] != 16 {
		t.Fatalf("input grads %v %v", dx.Shape, dy.Shape)
	}
}

// TestGeneratorGradCheck verifies the full U-Net backward (skip
// concats, conditioning split) against central differences on the
// input.
func TestGeneratorGradCheck(t *testing.T) {
	cfg := tinyConfig()
	cfg.DropoutP = 0 // dropout breaks determinism across re-forwards
	m, _ := NewModel(cfg)
	rng := rand.New(rand.NewSource(7))
	x := tensor.New(1, 1, 16, 16)
	x.RandNormal(rng, 0, 0.5)
	p := tensor.FromSlice([]float32{0.4, 0.6}, 1, 2)
	w := tensor.New(1, 1, 16, 16)
	w.RandNormal(rng, 0, 1)

	loss := func() float64 {
		y := m.G.Forward(x.Clone(), p, true)
		var s float64
		for i := range y.Data {
			s += float64(y.Data[i]) * float64(w.Data[i])
		}
		return s
	}
	loss() // populate caches
	dx := m.G.Backward(w.Clone())

	const eps = 1e-2
	idxs := rng.Perm(x.Len())[:8]
	for _, i := range idxs {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss()
		x.Data[i] = orig - eps
		lm := loss()
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		ana := float64(dx.Data[i])
		scale := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
		if math.Abs(num-ana)/scale > 0.08 {
			t.Fatalf("generator input grad[%d]: analytic %v numeric %v", i, ana, num)
		}
	}
}

func makeToySamples(n int, rng *rand.Rand, size int) []Sample {
	// The "cache" to learn: misses are accesses with the top half of
	// the address space filtered out (a crude but learnable filter).
	var out []Sample
	for i := 0; i < n; i++ {
		a := heatmap.NewHeatmap("toy", size, size)
		ms := heatmap.NewHeatmap("toy.miss", size, size)
		for j := 0; j < size*size/3; j++ {
			y, x := rng.Intn(size), rng.Intn(size)
			a.Pix[y*size+x] += 8
			if y >= size/2 {
				ms.Pix[y*size+x] += 8
			}
		}
		out = append(out, Sample{Access: a, Miss: ms, Params: []float32{0.375, 0.4}, Bench: "toy"})
	}
	return out
}

func TestTrainingLearnsToyFilter(t *testing.T) {
	cfg := tinyConfig()
	cfg.LR = 2e-3 // tiny model + tiny dataset: larger steps converge in-test
	m, _ := NewModel(cfg)
	rng := rand.New(rand.NewSource(8))
	samples := makeToySamples(24, rng, 16)
	stats, err := m.Train(samples, TrainConfig{Epochs: 20, BatchSize: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, last := stats.Epochs[0], stats.Final()
	if last.GL1 > first.GL1*0.7 {
		t.Fatalf("L1 did not fall: first %v last %v", first.GL1, last.GL1)
	}
	// Prediction should roughly keep the bottom half and drop the top.
	test := makeToySamples(4, rng, 16)
	var acc []*heatmap.Heatmap
	for _, s := range test {
		acc = append(acc, s.Access)
	}
	preds := m.Predict(acc, []float32{0.375, 0.4}, 4)
	var topSum, botSum float64
	for _, p := range preds {
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				if y < 8 {
					topSum += float64(p.At(y, x))
				} else {
					botSum += float64(p.At(y, x))
				}
			}
		}
	}
	if botSum <= topSum {
		t.Fatalf("filter not learned: top=%v bottom=%v", topSum, botSum)
	}
}

func TestTrainValidation(t *testing.T) {
	m, _ := NewModel(tinyConfig())
	if _, err := m.Train(nil, TrainConfig{}); err == nil {
		t.Fatal("empty sample set accepted")
	}
	bad := []Sample{{Access: heatmap.NewHeatmap("x", 8, 8), Miss: heatmap.NewHeatmap("y", 8, 8)}}
	if _, err := m.Train(bad, TrainConfig{}); err == nil {
		t.Fatal("wrong-size sample accepted")
	}
	if _, err := m.Train([]Sample{{}}, TrainConfig{}); err == nil {
		t.Fatal("nil heatmaps accepted")
	}
}

func TestPredictBatchSizeInvariance(t *testing.T) {
	// Batched inference must produce identical results regardless of
	// batch size (only faster): predictions are per-image.
	m, _ := NewModel(tinyConfig())
	rng := rand.New(rand.NewSource(9))
	samples := makeToySamples(7, rng, 16)
	var acc []*heatmap.Heatmap
	for _, s := range samples {
		acc = append(acc, s.Access)
	}
	p := []float32{0.375, 0.4}
	one := m.Predict(acc, p, 1)
	many := m.Predict(acc, p, 4)
	if len(one) != len(many) {
		t.Fatal("length mismatch")
	}
	for i := range one {
		for j := range one[i].Pix {
			if math.Abs(float64(one[i].Pix[j]-many[i].Pix[j])) > 1e-4 {
				t.Fatalf("image %d pixel %d: %v vs %v", i, j, one[i].Pix[j], many[i].Pix[j])
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, _ := NewModel(tinyConfig())
	rng := rand.New(rand.NewSource(10))
	samples := makeToySamples(8, rng, 16)
	if _, err := m.Train(samples, TrainConfig{Epochs: 1, BatchSize: 4}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var acc []*heatmap.Heatmap
	for _, s := range samples[:3] {
		acc = append(acc, s.Access)
	}
	p := []float32{0.375, 0.4}
	y1 := m.Predict(acc, p, 2)
	y2 := m2.Predict(acc, p, 2)
	for i := range y1 {
		for j := range y1[i].Pix {
			if y1[i].Pix[j] != y2[i].Pix[j] {
				t.Fatalf("loaded model diverges at image %d pixel %d", i, j)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	_, err := Load(bytes.NewReader([]byte("not a model")))
	if err == nil {
		t.Fatal("garbage accepted")
	}
	if !errors.Is(err, ErrBadHeader) {
		t.Fatalf("garbage error %v does not unwrap to ErrBadHeader", err)
	}
}

func TestLoadHeaderTypedErrors(t *testing.T) {
	encode := func(h modelHeader) *bytes.Reader {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(h); err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(buf.Bytes())
	}
	cases := []struct {
		name string
		h    modelHeader
	}{
		{"wrong magic", modelHeader{Magic: "notgan", Version: 1, Cfg: tinyConfig()}},
		{"wrong version", modelHeader{Magic: "cbgan", Version: 99, Cfg: tinyConfig()}},
		{"invalid config", modelHeader{Magic: "cbgan", Version: 1, Cfg: Config{ImageSize: 48}}},
	}
	for _, tc := range cases {
		_, err := Load(encode(tc.h))
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		var he *HeaderError
		if !errors.As(err, &he) {
			t.Fatalf("%s: error %v is not a *HeaderError", tc.name, err)
		}
		if !errors.Is(err, ErrBadHeader) {
			t.Fatalf("%s: error %v does not unwrap to ErrBadHeader", tc.name, err)
		}
	}
}

func TestReadFileHeader(t *testing.T) {
	m, _ := NewModel(tinyConfig())
	dir := t.TempDir()
	path := dir + "/m.cbgan"
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	cfg, err := ReadFileHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ImageSize != m.Cfg.ImageSize || cfg.CondDim != m.Cfg.CondDim {
		t.Fatalf("header config %+v does not match model config", cfg)
	}
	bad := dir + "/bad.cbgan"
	if err := os.WriteFile(bad, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFileHeader(bad); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("junk file error %v does not unwrap to ErrBadHeader", err)
	}
}

func TestPredictConditionedMatchesPredict(t *testing.T) {
	m, _ := NewModel(tinyConfig())
	rng := rand.New(rand.NewSource(11))
	samples := makeToySamples(6, rng, 16)
	var acc []*heatmap.Heatmap
	for _, s := range samples[:4] {
		acc = append(acc, s.Access)
	}
	cond := ConditionVec{Sets: 64, Ways: 12}
	want := m.Predict(acc, cond.Params(), len(acc))
	conds := make([]ConditionVec, len(acc))
	for i := range conds {
		conds[i] = cond
	}
	got, err := m.PredictConditioned(acc, conds)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d images, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i].Pix {
			if want[i].Pix[j] != got[i].Pix[j] {
				t.Fatalf("image %d pixel %d: %v vs %v", i, j, want[i].Pix[j], got[i].Pix[j])
			}
		}
	}
}

func TestPredictConditionedValidation(t *testing.T) {
	m, _ := NewModel(tinyConfig())
	good := heatmap.NewHeatmap("a", 16, 16)
	cond := ConditionVec{Sets: 64, Ways: 12}
	if _, err := m.PredictConditioned(nil, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := m.PredictConditioned([]*heatmap.Heatmap{good}, nil); err == nil {
		t.Fatal("missing conditions accepted")
	}
	if _, err := m.PredictConditioned([]*heatmap.Heatmap{nil}, []ConditionVec{cond}); err == nil {
		t.Fatal("nil heatmap accepted")
	}
	wrong := heatmap.NewHeatmap("b", 8, 8)
	if _, err := m.PredictConditioned([]*heatmap.Heatmap{wrong}, []ConditionVec{cond}); err == nil {
		t.Fatal("wrong image size accepted")
	}
	if _, err := m.PredictConditioned([]*heatmap.Heatmap{good}, []ConditionVec{{Sets: 0, Ways: 12}}); err == nil {
		t.Fatal("invalid condition vector accepted")
	}
}

func TestTrainStatsFinalEmpty(t *testing.T) {
	ts := &TrainStats{}
	if ts.Final() != (EpochStats{}) {
		t.Fatal("empty Final not zero")
	}
}

func TestGeneratorPartialDepth(t *testing.T) {
	// Depth below log2(ImageSize) leaves a spatial bottleneck; the
	// conditioning path must reshape to match it.
	cfg := tinyConfig()
	cfg.Depth = 2 // 16 -> 8 -> 4 bottleneck
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 1, 16, 16)
	p := tensor.New(2, 2)
	y := m.G.Forward(x, p, false)
	if y.Shape[2] != 16 || y.Shape[3] != 16 {
		t.Fatalf("partial-depth output %v", y.Shape)
	}
	// And it must train a step without shape panics.
	rng := rand.New(rand.NewSource(40))
	samples := makeToySamples(4, rng, 16)
	if _, err := m.Train(samples, TrainConfig{Epochs: 1, BatchSize: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestModelSaveFileLoadFile(t *testing.T) {
	m, _ := NewModel(tinyConfig())
	dir := t.TempDir()
	path := dir + "/m.cbgan"
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Cfg.ImageSize != m.Cfg.ImageSize {
		t.Fatal("config lost through file round trip")
	}
	if _, err := LoadFile(dir + "/missing.cbgan"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// Score is the one place an evaluation clamps the prediction to its
// access image, so the clamp is asserted here on pairs built to need
// it: every access lands on one pixel, so an untrained generator's
// diffuse raw output exceeds the access image on all the others, while
// the hot pixel is large enough that HitRate's own cap at the access
// total does not hide the difference.
func TestScoreClampsPredictionToAccess(t *testing.T) {
	m, _ := NewModel(tinyConfig())
	hm := heatmap.Config{Height: 16, Width: 16, WindowInstr: 100, Overlap: 0.3}
	params := []float32{0.375, 0.4}
	var pairs []heatmap.Pair
	var access []*heatmap.Heatmap
	for i := 0; i < 3; i++ {
		a := heatmap.NewHeatmap("sparse", 16, 16)
		ms := heatmap.NewHeatmap("sparse.miss", 16, 16)
		a.Pix[5*16+12], ms.Pix[5*16+12] = 4000, 800
		a.Index, ms.Index = i, i
		pairs = append(pairs, heatmap.Pair{Access: a, Miss: ms})
		access = append(access, a)
	}

	raw := m.Predict(access, params, 2)
	exceeds := false
	clamped := make([]*heatmap.Heatmap, len(raw))
	for i, p := range raw {
		for j, v := range p.Pix {
			if v > access[i].Pix[j] {
				exceeds = true
			}
		}
		clamped[i] = heatmap.ConstrainMiss(p, access[i])
	}
	if !exceeds {
		t.Fatal("test premise broken: the raw prediction never exceeds the access image")
	}
	rawHR, err := heatmap.HitRate(hm, access, raw)
	if err != nil {
		t.Fatal(err)
	}
	wantHR, err := heatmap.HitRate(hm, access, clamped)
	if err != nil {
		t.Fatal(err)
	}
	if rawHR == wantHR {
		t.Fatalf("test premise broken: clamping does not move the hit rate (%v)", rawHR)
	}

	trueHR, predHR, err := m.Score(hm, pairs, params, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(trueHR-0.8) > 1e-9 {
		t.Fatalf("true hit rate %v, want 0.8", trueHR)
	}
	if predHR != wantHR {
		t.Fatalf("predicted hit rate %v, want the clamped %v (unclamped is %v)", predHR, wantHR, rawHR)
	}
	if _, _, err := m.Score(hm, nil, params, 2); err == nil {
		t.Fatal("Score accepted an empty pair set")
	}
}
