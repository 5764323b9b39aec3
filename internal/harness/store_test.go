package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"cachebox/internal/cachesim"
	"cachebox/internal/core"
	"cachebox/internal/metrics"
	"cachebox/internal/store"
	"cachebox/internal/workload"
)

// storeRunner builds a Tiny-scale runner with a store rooted in its own
// temp dir, so two runners can share one warm store.
func storeRunner(t *testing.T, storeDir string) *Runner {
	t.Helper()
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(Tiny, t.TempDir(), &bytes.Buffer{})
	r.Store = st
	return r
}

// TestFig3WarmStoreSkipsSimulator is the issue's acceptance check:
// rerunning a figure against a warm store performs zero simulator
// invocations, registers store hits, and reproduces byte-identical
// artifacts. The runtime counters are process-global, so the test
// measures deltas rather than absolute values.
func TestFig3WarmStoreSkipsSimulator(t *testing.T) {
	storeDir := t.TempDir()

	cold := storeRunner(t, storeDir)
	sims0 := metrics.SimRuns.Value()
	res1, err := cold.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if metrics.SimRuns.Value() == sims0 {
		t.Fatal("cold run did not invoke the simulator")
	}

	warm := storeRunner(t, storeDir)
	sims1 := metrics.SimRuns.Value()
	hits1 := metrics.StoreHits.Value()
	res2, err := warm.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics.SimRuns.Value(); got != sims1 {
		t.Fatalf("warm rerun ran the simulator %d time(s)", got-sims1)
	}
	if metrics.StoreHits.Value() == hits1 {
		t.Fatal("warm rerun registered no store hits")
	}

	if len(res1.Paths) != len(res2.Paths) {
		t.Fatalf("path counts differ: %d vs %d", len(res1.Paths), len(res2.Paths))
	}
	for i := range res1.Paths {
		a, err := os.ReadFile(res1.Paths[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(res2.Paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("warm-store artifact %s differs from cold run", filepath.Base(res2.Paths[i]))
		}
	}
}

// TestSplitSeedChangesStoreKeys: runs with different train/test splits
// must never share cached simulation results.
func TestSplitSeedChangesStoreKeys(t *testing.T) {
	storeDir := t.TempDir()

	r1 := storeRunner(t, storeDir)
	if _, err := r1.Fig3(); err != nil {
		t.Fatal(err)
	}

	r2 := storeRunner(t, storeDir)
	r2.SplitSeed = 43
	sims := metrics.SimRuns.Value()
	if _, err := r2.Fig3(); err != nil {
		t.Fatal(err)
	}
	if metrics.SimRuns.Value() == sims {
		t.Fatal("different split seed reused another split's cache entry")
	}
}

// TestTrainOrLoadFromStore: a model published to the store by one
// runner is loaded — not rebuilt — by a second runner with an empty
// artifacts directory.
func TestTrainOrLoadFromStore(t *testing.T) {
	storeDir := t.TempDir()
	build := func() (*core.Model, error) {
		cfg := core.DefaultConfig()
		cfg.ImageSize = 16
		cfg.NGF = 2
		cfg.NDF = 2
		cfg.DLayers = 1
		cfg.CondHidden = 4
		cfg.CondChannels = 2
		cfg.Seed = 5
		return core.NewModel(cfg)
	}

	r1 := storeRunner(t, storeDir)
	m1, err := r1.trainOrLoad("store-roundtrip", build)
	if err != nil {
		t.Fatal(err)
	}

	r2 := storeRunner(t, storeDir)
	m2, err := r2.trainOrLoad("store-roundtrip", func() (*core.Model, error) {
		t.Fatal("model rebuilt despite warm store")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := m1.Save, m2.Save
	var b1, b2 bytes.Buffer
	if err := s1(&b1); err != nil {
		t.Fatal(err)
	}
	if err := s2(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("stored model round-trip is not byte-identical")
	}

	// A different split seed is a different model artifact: the build
	// function must run again.
	r3 := storeRunner(t, storeDir)
	r3.SplitSeed = 43
	built := false
	if _, err := r3.trainOrLoad("store-roundtrip", func() (*core.Model, error) {
		built = true
		return build()
	}); err != nil {
		t.Fatal(err)
	}
	if !built {
		t.Fatal("split-seed 43 model served from split-seed 42 cache entry")
	}
}

// TestModelCacheKeysOnRecipe: the -config batch-size override changes
// what trainOrLoad's build function trains, so runners that share a
// store and an artifacts dir but differ in it must not serve each
// other's models — from the store or from the legacy model file.
func TestModelCacheKeysOnRecipe(t *testing.T) {
	storeDir, artifacts := t.TempDir(), t.TempDir()
	trained := 0
	run := func(batchSize int) []byte {
		t.Helper()
		r := storeRunner(t, storeDir)
		r.ArtifactsDir = artifacts
		r.Train.BatchSize = batchSize
		m, err := r.trainOrLoad("recipe", func() (*core.Model, error) {
			trained++
			model, err := core.NewModel(r.Profile.Model)
			if err != nil {
				return nil, err
			}
			b := r.specSuite().Benchmarks[0]
			ds, err := r.truth().Samples(context.Background(), []workload.Benchmark{b}, []cachesim.Config{L1Default}, 0)
			if err != nil {
				return nil, err
			}
			if _, err := model.Train(ds, r.trainConfig("recipe", 1, 3)); err != nil {
				return nil, err
			}
			return model, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	bs4 := run(4)
	bs8 := run(8)
	if trained != 2 {
		t.Fatalf("batch size 8 was served the batch size 4 model (%d trainings)", trained)
	}
	if bytes.Equal(bs4, bs8) {
		t.Fatal("batch sizes 4 and 8 trained byte-identical models")
	}
	if again := run(4); trained != 2 || !bytes.Equal(again, bs4) {
		t.Fatalf("the batch size 4 recipe was not loaded back from the cache (%d trainings)", trained)
	}
}
