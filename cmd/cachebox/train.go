package main

import (
	"cachebox"
	"cachebox/internal/cachesim"
	"cachebox/internal/core"
	"cachebox/internal/traind"
)

// tinyModelConfig shrinks the CB-GAN for smoke tests: a 16×16 image
// with minimal channel counts trains in seconds on one core.
func tinyModelConfig() cachebox.ModelConfig {
	c := cachebox.DefaultModelConfig()
	c.ImageSize = 16
	c.NGF = 2
	c.NDF = 2
	c.DLayers = 1
	c.CondHidden = 4
	c.CondChannels = 2
	return c
}

func (c *cli) train(args []string) (err error) {
	fs := c.flags("train")
	out := fs.String("o", "model.cbgan", "output model file")
	loadModel := fs.String("load-model", "", "warm-start from an existing model instead of initialising fresh; with -epochs 0 the model is re-exported without training")
	tiny := fs.Bool("tiny", false, "use a miniature model and heatmap geometry (fast smoke-test models)")
	cfgStr := fs.String("cache", "64set-12way", "comma-separated cache geometries to train on")
	configPath := fs.String("config", "", "train.json TrainConfig file; explicitly passed flags override its fields")
	fs.Int("epochs", 50, "training epochs (0 with -load-model: re-export only)")
	fs.Int("batch", 8, "batch size")
	fs.Int("shards", 0, "data-parallel gradient shards per batch (0/1 = serial; the model depends on -shards, never on -j)")
	benches := suiteFlags(fs)
	seed := fs.Int64("seed", 42, "train/test split seed")
	maxBenches := fs.Int("max-benches", 0, "cap the number of training benchmarks (0 = all)")
	storeDir := fs.String("store", "", "artifact store directory for memoised simulation results (empty = no store)")
	noStore := fs.Bool("no-store", false, "disable the artifact store even if -store is set")
	fs.Int("checkpoint-every", 0, "write a resumable checkpoint every N epochs (0 disables)")
	resume := fs.Bool("resume", false, "resume training from the checkpoint file if present")
	workers := fs.Int("j", 0, "worker-pool width for simulation and gradient shards (0 = GOMAXPROCS, 1 = serial); results are identical at any width")
	tracePath := fs.String("trace", "", "write a Chrome trace-event file of the run's spans to this path")
	if err := parse(fs, args); err != nil {
		return err
	}
	defer c.traceToFile(*tracePath, &err)()
	path, ckptPath := *out, *out+".ckpt"
	tc, err := core.ResolveTrainConfig(*configPath, fs)
	if err != nil {
		return err
	}
	tc.Log = c

	var m *cachebox.Model
	if *loadModel != "" {
		if m, err = cachebox.LoadModelFile(*loadModel); err != nil {
			return err
		}
	} else {
		mc := cachebox.DefaultModelConfig()
		if *tiny {
			mc = tinyModelConfig()
		}
		if m, err = cachebox.NewModel(mc); err != nil {
			return err
		}
	}
	if tc.Checkpoint.Every > 0 && tc.Checkpoint.Path == "" {
		tc.Checkpoint.Path = ckptPath
	}
	if *resume {
		// Train resumes from the file if it exists and starts fresh if
		// not.
		tc.Checkpoint.Resume = ckptPath
		if tc.Checkpoint.Path == "" {
			// Keep checkpointing where the resumed run left its state.
			tc.Checkpoint.Path = ckptPath
			tc.Checkpoint.Every = 1
		}
	}
	note, p := "", cachebox.NewPipeline()
	switch {
	case tc.Epochs <= 0:
		// Re-export path: no dataset and no training, so a trained model
		// can be copied into a serving registry (or a fresh tiny model
		// materialised) without a training run.
		note = " (no training)"
	case tc.Dataset.Kind == cachebox.TrainDatasetStream:
		// A -config file naming a streamed dataset trains straight off
		// the sharded store manifest.
		src, man, err := traind.OpenDatasetSource(tc.Dataset)
		if err != nil {
			return err
		}
		c.Printf("training on %d streamed samples from dataset %q\n", src.Len(), man.Name)
		if _, err := m.TrainSource(src, tc); err != nil {
			return err
		}
	default:
		// The synthetic pipeline builds the dataset in memory.
		cfgs, err := parseCaches(*cfgStr)
		if err != nil {
			return err
		}
		train, _ := cachebox.SplitBenchmarks(benches(), 0.8, *seed)
		if *maxBenches > 0 && len(train) > *maxBenches {
			train = train[:*maxBenches]
		}
		p.MaxPairsPerBench = 24
		p.SplitSeed = *seed
		p.Workers = *workers
		if *tiny {
			// Match the heatmap geometry to the miniature model and shrink
			// the window so short traces still yield training pairs.
			p.Heatmap = cachebox.HeatmapConfig{Height: 16, Width: 16, WindowInstr: 40, Overlap: 0.30, AddrShift: 6}
			p.MaxPairsPerBench = 8
		}
		if *storeDir != "" && !*noStore {
			if p.Store, err = cachebox.OpenStore(*storeDir); err != nil {
				return err
			}
		}
		ds, err := p.Dataset(train, cfgs, 0.65)
		if err != nil {
			return err
		}
		c.Printf("training on %d samples from %d benchmarks x %d configs\n", len(ds), len(train), len(cfgs))
		if _, err := m.Train(ds, tc); err != nil {
			return err
		}
	}
	if err := m.SaveFile(path); err != nil {
		return err
	}
	c.Printf("saved model to %s%s\n", path, note)
	if p.Store != nil {
		c.Printf("%s\n", cachebox.RuntimeSummary())
	}
	return nil
}

func (c *cli) evaluate(args []string) (err error) {
	fs := c.flags("evaluate")
	modelPath := fs.String("model", "model.cbgan", "trained model file")
	cfgStr := fs.String("cache", "64set-12way", "cache geometry to evaluate")
	batch := fs.Int("batch", 8, "inference batch size")
	benches := suiteFlags(fs)
	seed := fs.Int64("seed", 42, "train/test split seed (must match training)")
	workers := fs.Int("j", 0, "simulation worker-pool width (0 = GOMAXPROCS, 1 = serial); results are identical at any width")
	tracePath := fs.String("trace", "", "write a Chrome trace-event file of the run's spans to this path")
	if err := parse(fs, args); err != nil {
		return err
	}
	defer c.traceToFile(*tracePath, &err)()
	m, err := cachebox.LoadModelFile(*modelPath)
	if err != nil {
		return err
	}
	cfg, err := cachesim.ParseConfig(*cfgStr)
	if err != nil {
		return err
	}
	_, test := cachebox.SplitBenchmarks(benches(), 0.8, *seed)
	p := cachebox.NewPipeline()
	p.MaxPairsPerBench = 24
	p.Workers = *workers
	var sum float64
	n := 0
	// Ground-truth simulation fans out across the worker pool; rows
	// print in benchmark order either way.
	for _, res := range p.EvaluateAll(m, test, cfg, *batch) {
		ev, err := res.Eval, res.Err
		if err != nil {
			c.Printf("%-36s skipped: %v\n", res.Eval.Bench, err)
			continue
		}
		if ev.TrueHit < 0.65 {
			c.Printf("%-36s excluded (true hit %.4f below data-regime threshold)\n", ev.Bench, ev.TrueHit)
			continue
		}
		c.Printf("%-36s true=%.4f pred=%.4f |diff|=%.2f%%\n", ev.Bench, ev.TrueHit, ev.PredHit, ev.AbsPctDiff)
		sum += ev.AbsPctDiff
		n++
	}
	if n > 0 {
		c.Printf("average absolute percentage difference: %.2f%% over %d benchmarks\n", sum/float64(n), n)
	}
	return nil
}
