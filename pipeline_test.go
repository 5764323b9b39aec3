package cachebox

import (
	"math"
	"reflect"
	"testing"

	"cachebox/internal/cachesim"
	"cachebox/internal/heatmap"
)

func tinyPipe() Pipeline {
	p := NewPipeline()
	p.Heatmap.Height, p.Heatmap.Width = 16, 16
	p.Heatmap.WindowInstr = 150
	p.MaxPairsPerBench = 5
	return p
}

func TestPipelineBenchPairs(t *testing.T) {
	p := tinyPipe()
	suite := SpecLike(2, 1, 20000)
	pairs, hr, err := p.BenchPairs(suite.Benchmarks[0], CacheConfig{Sets: 64, Ways: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 || len(pairs) > 5 {
		t.Fatalf("pairs = %d, want 1..5", len(pairs))
	}
	if hr <= 0 || hr > 1 {
		t.Fatalf("hit rate %v", hr)
	}
	for _, pr := range pairs {
		if pr.Access.H != 16 || pr.Miss.W != 16 {
			t.Fatalf("pair size %dx%d", pr.Access.H, pr.Miss.W)
		}
	}
}

// BenchPairs must equal the reference pipeline the stream tests are
// held to — materialise the trace, RunTrace, BuildPair, cap — on a cold
// store and again when the pairs come back out of it.
func TestPipelineBenchPairsMatchesReference(t *testing.T) {
	p := streamTestPipeline(t)
	cfg := CacheConfig{Sets: 16, Ways: 2, BlockSize: 64}
	for _, b := range streamTestBenches() {
		lt := cachesim.RunTrace(cachesim.New(cfg), b.Trace())
		want, err := heatmap.BuildPair(p.Heatmap, lt.Accesses, lt.Misses)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) > p.MaxPairsPerBench {
			want = want[:p.MaxPairsPerBench]
		}
		for _, state := range []string{"cold", "warm"} {
			got, hr, err := p.BenchPairs(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if hr != lt.HitRate() || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (%s store): BenchPairs differs from the reference (%d vs %d pairs, hit rate %v vs %v)",
					b.Name, state, len(got), len(want), hr, lt.HitRate())
			}
		}
	}
}

func TestPipelineLevelPairs(t *testing.T) {
	p := tinyPipe()
	suite := SpecLike(2, 1, 30000)
	cfgs := []CacheConfig{{Sets: 16, Ways: 4}, {Sets: 64, Ways: 8}}
	pairs, rates, err := p.LevelPairs(suite.Benchmarks[0], cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 || len(rates) != 2 {
		t.Fatalf("levels %d/%d", len(pairs), len(rates))
	}
	if rates[0] <= 0 {
		t.Fatalf("L1 rate %v", rates[0])
	}
}

func TestPipelineDatasetFiltersAndTags(t *testing.T) {
	p := tinyPipe()
	suite := SpecLike(4, 1, 20000)
	cfg := CacheConfig{Sets: 64, Ways: 12}
	ds, err := p.Dataset(suite.Benchmarks, []CacheConfig{cfg}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 {
		t.Fatal("empty dataset")
	}
	want := CacheParams(cfg)
	for _, s := range ds {
		if s.Bench == "" {
			t.Fatal("sample missing bench tag")
		}
		if len(s.Params) != 2 || s.Params[0] != want[0] {
			t.Fatalf("sample params %v", s.Params)
		}
	}
	// An impossible threshold must error out rather than return an
	// empty dataset.
	if _, err := p.Dataset(suite.Benchmarks, []CacheConfig{cfg}, 1.1); err == nil {
		t.Fatal("impossible threshold accepted")
	}
}

func TestPipelineEvaluateAgainstTruth(t *testing.T) {
	p := tinyPipe()
	suite := SpecLike(3, 1, 20000)
	cfg := CacheConfig{Sets: 64, Ways: 12}
	ds, err := p.Dataset(suite.Benchmarks[:2], []CacheConfig{cfg}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mc := DefaultModelConfig()
	mc.ImageSize = 16
	mc.NGF, mc.NDF = 4, 4
	m, err := NewModel(mc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(ds, TrainConfig{Epochs: 1, BatchSize: 4}); err != nil {
		t.Fatal(err)
	}
	ev, err := p.Evaluate(m, suite.Benchmarks[2], cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ev.TrueHit <= 0 || ev.TrueHit > 1 || ev.PredHit < 0 || ev.PredHit > 1 {
		t.Fatalf("eval %+v", ev)
	}
	if math.Abs(ev.AbsPctDiff-AbsPctDiff(ev.TrueHit, ev.PredHit)) > 1e-9 {
		t.Fatal("AbsPctDiff inconsistent")
	}
	if ev.Pairs == 0 {
		t.Fatal("no pairs recorded")
	}
}

func TestPipelineTrueHitRates(t *testing.T) {
	p := tinyPipe()
	suite := SpecLike(3, 1, 10000)
	rates := p.TrueHitRates(suite.Benchmarks, CacheConfig{Sets: 64, Ways: 12})
	if len(rates) != len(suite.Benchmarks) {
		t.Fatalf("rates for %d of %d", len(rates), len(suite.Benchmarks))
	}
	for name, r := range rates {
		if r < 0 || r > 1 {
			t.Fatalf("%s rate %v", name, r)
		}
	}
}

func TestAllSuitesAndFlatten(t *testing.T) {
	suites := AllSuites(3, 2, 1000, 0.2)
	if len(suites) != 3 {
		t.Fatalf("suites = %d", len(suites))
	}
	all := FlattenSuites(suites)
	want := 0
	for _, s := range suites {
		want += len(s.Benchmarks)
	}
	if len(all) != want {
		t.Fatalf("flattened %d, want %d", len(all), want)
	}
}

func TestFacadeReExports(t *testing.T) {
	// Compile-time API checks plus a couple of runtime sanity calls.
	if DefaultHeatmapConfig().Validate() != nil {
		t.Fatal("default heatmap config invalid")
	}
	if DefaultModelConfig().Validate() != nil {
		t.Fatal("default model config invalid")
	}
	if PaperHeatmapConfig().Height != 512 {
		t.Fatal("paper heatmap config wrong")
	}
	if PaperModelConfig().ImageSize != 512 {
		t.Fatal("paper model config wrong")
	}
	if got := AbsPctDiff(0.9, 0.85); math.Abs(got-5) > 1e-9 {
		t.Fatalf("AbsPctDiff = %v", got)
	}
	c := NewCache(CacheConfig{Sets: 4, Ways: 2})
	if c.Access(0, false) {
		t.Fatal("cold hit")
	}
}
