package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cachebox/internal/cachesim"
	"cachebox/internal/store"
	"cachebox/internal/workload"
)

// hashTree walks root and returns relative path → SHA-256 for every
// regular file under it.
func hashTree(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		out[rel] = hex.EncodeToString(sum[:])
		return nil
	})
	if err != nil {
		t.Fatalf("hashing %s: %v", root, err)
	}
	return out
}

// parallelRunner builds a Tiny runner with the given worker-pool width,
// its own artifact dir and its own store root.
func parallelRunner(t *testing.T, workers int) *Runner {
	t.Helper()
	r := NewRunner(Tiny, t.TempDir(), &bytes.Buffer{})
	r.Workers = workers
	st, err := store.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	r.Store = st
	return r
}

// TestFig3ParallelEquivalence is the determinism contract of the -j
// flag made executable: the same experiment run serially and with an
// 8-wide pool, into separate store roots, must produce byte-identical
// artifact PNGs.
func TestFig3ParallelEquivalence(t *testing.T) {
	r1 := parallelRunner(t, 1)
	r8 := parallelRunner(t, 8)
	if _, err := r1.Fig3(); err != nil {
		t.Fatal(err)
	}
	if _, err := r8.Fig3(); err != nil {
		t.Fatal(err)
	}
	h1 := hashTree(t, filepath.Join(r1.ArtifactsDir, "fig3"))
	h8 := hashTree(t, filepath.Join(r8.ArtifactsDir, "fig3"))
	if len(h1) == 0 {
		t.Fatal("fig3 produced no artifacts")
	}
	if !reflect.DeepEqual(h1, h8) {
		t.Fatalf("artifacts differ between -j 1 and -j 8:\nserial:   %v\nparallel: %v", h1, h8)
	}
}

// TestDatasetParallelEquivalence checks the training-set half of the
// contract: the sample stream a fig7-style run trains on is identical
// whatever the pool width, in content and in order.
func TestDatasetParallelEquivalence(t *testing.T) {
	r1 := parallelRunner(t, 1)
	r8 := parallelRunner(t, 8)
	var benches []workload.Benchmark
	for _, s := range r1.suites() {
		benches = append(benches, s.Benchmarks...)
	}
	train, _ := r1.split(benches)
	cfgs := []cachesim.Config{L1Default}
	d1, err := r1.truth().Samples(context.Background(), train, cfgs, 0.65)
	if err != nil {
		t.Fatal(err)
	}
	d8, err := r8.truth().Samples(context.Background(), train, cfgs, 0.65)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1) == 0 {
		t.Fatal("empty dataset")
	}
	if !reflect.DeepEqual(d1, d8) {
		t.Fatalf("datasets differ between -j 1 and -j 8 (%d vs %d samples)", len(d1), len(d8))
	}
}
