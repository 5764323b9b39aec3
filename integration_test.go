package cachebox_test

import (
	"os"
	"path/filepath"
	"testing"

	"cachebox"
)

// TestEndToEndPipelineIntegration drives the whole public API once:
// suite → split → simulate → dataset → train → save → load → evaluate
// → phase analysis. It is the "does the system hang together"
// test a downstream user effectively runs on day one.
func TestEndToEndPipelineIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	suite := cachebox.SpecLike(5, 1, 20000)
	train, test := cachebox.SplitBenchmarks(suite.Benchmarks, 0.8, 3)

	pipe := cachebox.NewPipeline()
	pipe.Heatmap.Height, pipe.Heatmap.Width = 16, 16
	pipe.Heatmap.WindowInstr = 150
	pipe.MaxPairsPerBench = 6
	cfg := cachebox.CacheConfig{Sets: 64, Ways: 12}

	ds, err := pipe.Dataset(train, []cachebox.CacheConfig{cfg}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mc := cachebox.DefaultModelConfig()
	mc.ImageSize = 16
	mc.NGF, mc.NDF = 4, 4
	model, err := cachebox.NewModel(mc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Train(ds, cachebox.TrainConfig{Epochs: 2, BatchSize: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	// Serialise through disk and keep working with the loaded copy.
	path := filepath.Join(t.TempDir(), "model.cbgan")
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := cachebox.LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil || info.Size() == 0 {
		t.Fatalf("model file: %v %v", info, err)
	}

	ev, err := pipe.Evaluate(loaded, test[0], cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ev.TrueHit < 0 || ev.TrueHit > 1 || ev.PredHit < 0 || ev.PredHit > 1 {
		t.Fatalf("evaluation out of range: %+v", ev)
	}

	// Phase analysis on the same benchmark.
	tr := test[0].Trace()
	pc := cachebox.DefaultPhaseConfig()
	pc.IntervalLen = 2000
	pc.K = 3
	phases, err := cachebox.AnalyzePhases(tr, pc)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases.Representatives) == 0 {
		t.Fatal("no phases found")
	}
}
