package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"cachebox/internal/store"
)

// fig7Model runs a fresh tiny fig7 into its own artifact dir (and its
// own store, when withStore) and returns the trained model's artifact
// bytes.
func fig7Model(t *testing.T, withStore bool, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	r := NewRunner(Tiny, t.TempDir(), &buf)
	if withStore {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		r.Store = st
	}
	r.Workers = workers
	if _, err := r.Fig7(); err != nil {
		t.Fatalf("fig7 (store=%v -j%d): %v\n%s", withStore, workers, err, buf.String())
	}
	data, err := os.ReadFile(filepath.Join(r.ArtifactsDir, "tiny-fig7-rq1-mixed.cbgan"))
	if err != nil {
		t.Fatalf("fig7 (store=%v -j%d) left no model artifact: %v", withStore, workers, err)
	}
	return data
}

// The one selection left on the ground-truth path is made from whether
// a store is attached: with one, fig7 trains from a sharded dataset
// fetched per batch; without one, from the same samples held in
// memory. Neither that nor the worker-pool width may reach the model
// artifact.
func TestFig7WorkerCountAndStoreInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	want := fig7Model(t, true, 1)
	if got := fig7Model(t, true, 8); !bytes.Equal(want, got) {
		t.Fatal("fig7 model at -j8 with a store differs from -j1 with a store")
	}
	if got := fig7Model(t, false, 4); !bytes.Equal(want, got) {
		t.Fatal("fig7 model at -j4 without a store differs from -j1 with a store")
	}
}
