package stream

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cachebox/internal/core"
	"cachebox/internal/sampling"
)

func testTruth(t *testing.T, withStore bool) Truth {
	t.Helper()
	tr := Truth{Heatmap: testGeom(), MaxWindows: 5, Workers: 2}
	if withStore {
		tr.Store = openStore(t)
	}
	return tr
}

// A cache fill that cannot land costs a later re-simulation and
// nothing else: Pairs still returns the reference result, and says so
// once to the caller's logger when there is one.
func TestTruthPairsSurvivesCacheFillFailure(t *testing.T) {
	b, cfg := testBenches()[0], testCfgs()[0]
	want, wantHR := materialise(t, b, cfg, testGeom(), 5)
	for _, withLogger := range []bool{true, false} {
		tr := testTruth(t, true)
		// Put stages payloads here; without it every write fails.
		if err := os.RemoveAll(filepath.Join(tr.Store.Root(), "tmp")); err != nil {
			t.Fatal(err)
		}
		var logged []string
		if withLogger {
			tr.Logf = func(format string, args ...any) {
				logged = append(logged, fmt.Sprintf(format, args...))
			}
		}
		got, hr, err := tr.Pairs(context.Background(), b, cfg)
		if err != nil {
			t.Fatalf("cache-fill failure was fatal: %v", err)
		}
		if hr != wantHR || !reflect.DeepEqual(got, want) {
			t.Fatal("pairs differ from the reference after a failed cache fill")
		}
		if withLogger && len(logged) != 1 {
			t.Fatalf("failed cache fill logged %d times, want once: %q", len(logged), logged)
		}
	}
}

// Source picks its dataset form from whether a store is attached, and
// the choice must not reach the samples training sees.
func TestTruthSourceSameSamplesWithAndWithoutStore(t *testing.T) {
	ctx := context.Background()
	benches, cfgs := testBenches(), testCfgs()
	mem, man, err := testTruth(t, false).Source(ctx, "mem", benches, cfgs, 0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mem.(core.SliceSource); !ok || man != nil {
		t.Fatalf("no store: got %T with manifest %v, want an in-memory SliceSource and none", mem, man)
	}
	sharded, man, err := testTruth(t, true).Source(ctx, "sharded", benches, cfgs, 0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sharded.(*Dataset); !ok || man == nil {
		t.Fatalf("store attached: got %T with manifest %v, want a sharded *Dataset and its manifest", sharded, man)
	}
	if mem.Len() == 0 || mem.Len() != sharded.Len() {
		t.Fatalf("in-memory source serves %d samples, sharded %d", mem.Len(), sharded.Len())
	}
	for i := 0; i < mem.Len(); i++ {
		a, err := mem.At(i)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sharded.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("sample %d differs between the in-memory and the sharded source", i)
		}
	}

	smp := sampling.DefaultConfig()
	if _, _, err := testTruth(t, false).Source(ctx, "thin", benches, cfgs, 0, &smp); err == nil {
		t.Fatal("a sampled dataset was accepted without a store")
	}
}
