package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cachebox/internal/cachesim"
	"cachebox/internal/core"
	"cachebox/internal/heatmap"
	"cachebox/internal/metrics"
	"cachebox/internal/sampling"
	"cachebox/internal/store"
	"cachebox/internal/workload"
)

func testGeom() heatmap.Config {
	cfg := heatmap.DefaultConfig()
	cfg.Height, cfg.Width = 8, 8
	cfg.WindowInstr = 120
	return cfg
}

func testBenches() []workload.Benchmark {
	var bs []workload.Benchmark
	bs = append(bs, workload.SpecLike(2, 2, 1500).Benchmarks[:3]...)
	bs = append(bs, workload.ZipfLike(1500, 0.25).Benchmarks[:2]...)
	return bs
}

func testCfgs() []cachesim.Config {
	return []cachesim.Config{
		{Sets: 16, Ways: 2, BlockSize: 64, Policy: cachesim.PolicyLRU},
		{Sets: 64, Ways: 4, BlockSize: 64, Policy: cachesim.PolicyLRU},
	}
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// materialise builds one item the classic way: full trace, RunTrace,
// BuildPair — the reference the streamed build must reproduce.
func materialise(t *testing.T, b workload.Benchmark, cfg cachesim.Config, hm heatmap.Config, maxWindows int) ([]heatmap.Pair, float64) {
	t.Helper()
	tr := b.Trace()
	lt := cachesim.RunTrace(cachesim.New(cfg), tr)
	pairs, err := heatmap.BuildPair(hm, lt.Accesses, lt.Misses)
	if err != nil {
		t.Fatal(err)
	}
	if maxWindows > 0 && len(pairs) > maxWindows {
		pairs = pairs[:maxWindows]
	}
	return pairs, lt.HitRate()
}

// The streamed run must emit exactly the materialised pipeline's pairs
// and hit rate.
func TestRunMatchesMaterialised(t *testing.T) {
	hm := testGeom()
	for _, b := range testBenches()[:2] {
		for _, cfg := range testCfgs() {
			want, wantHR := materialise(t, b, cfg, hm, 0)
			var got []heatmap.Pair
			res, err := Run(context.Background(), b, cfg, RunConfig{Heatmap: hm}, func(w Window) error {
				got = append(got, w.Pair)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Complete || res.Windows != len(want) || res.HitRate != wantHR {
				t.Fatalf("%s: result %+v, want %d windows hr=%v", b.Name, res, len(want), wantHR)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: streamed pairs differ from BuildPair", b.Name)
			}
		}
	}
}

func TestRunStopEarly(t *testing.T) {
	hm := testGeom()
	b, cfg := testBenches()[0], testCfgs()[0]
	var got []heatmap.Pair
	res, err := Run(context.Background(), b, cfg, RunConfig{Heatmap: hm, MaxWindows: 2, StopEarly: true}, func(w Window) error {
		got = append(got, w.Pair)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete || res.HitRate != -1 || res.Windows != 2 || len(got) != 2 {
		t.Fatalf("early stop result %+v with %d pairs", res, len(got))
	}
	want, _ := materialise(t, b, cfg, hm, 2)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("early-stopped pairs differ from truncated BuildPair")
	}
	// Capped but not early-stopped: exact hit rate survives.
	_, wantHR := materialise(t, b, cfg, hm, 0)
	res, err = Run(context.Background(), b, cfg, RunConfig{Heatmap: hm, MaxWindows: 2}, func(Window) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.HitRate != wantHR || res.Windows != 2 {
		t.Fatalf("capped result %+v, want complete hr=%v", res, wantHR)
	}
}

// An fn error stops the run at that window: Run returns it and never
// calls fn again.
func TestRunStopsAtFnError(t *testing.T) {
	hm := testGeom()
	b, cfg := testBenches()[0], testCfgs()[0]
	boom := errors.New("consumer failed")
	const k = 3
	calls := 0
	_, err := Run(context.Background(), b, cfg, RunConfig{Heatmap: hm}, func(w Window) error {
		calls++
		if w.Index == k {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want the fn error", err)
	}
	if calls != k+1 {
		t.Fatalf("fn called %d times, want %d (never after its error)", calls, k+1)
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, testBenches()[0], testCfgs()[0], RunConfig{Heatmap: testGeom()}, func(Window) error {
		t.Fatal("fn called under a cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
}

// Run is a push pipeline on the caller's goroutine: it starts no
// goroutine while fn runs, and leaves none behind. Goroutines an earlier
// test started may still be exiting, so the count may fall, never rise.
func TestRunSpawnsNoGoroutine(t *testing.T) {
	hm := testGeom()
	b, cfg := testBenches()[0], testCfgs()[0]
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		_, err := Run(context.Background(), b, cfg, RunConfig{Heatmap: hm, MaxWindows: 4}, func(Window) error {
			if n := runtime.NumGoroutine(); n > before {
				return fmt.Errorf("%d goroutines inside fn, %d before Run", n, before)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after 50 runs, %d before", after, before)
	}
}

func TestShardRoundTrip(t *testing.T) {
	hm := testGeom()
	b, cfg := testBenches()[0], testCfgs()[0]
	pairs, _ := materialise(t, b, cfg, hm, 0)
	ws := make([]ShardWindow, len(pairs))
	for i, p := range pairs {
		ws[i] = ShardWindow{Access: p.Access, Miss: p.Miss, Weight: float64(i) * 0.5}
	}
	var buf bytes.Buffer
	if err := EncodeShard(&buf, ws); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeShard(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ws) {
		t.Fatal("shard round trip mutated windows")
	}
}

// The streamed, sharded dataset must serve the exact sample sequence
// Pipeline.Dataset materialises: same order, same images, same params.
func TestBuildMatchesMaterialised(t *testing.T) {
	hm := testGeom()
	benches, cfgs := testBenches(), testCfgs()
	const minHR = 0.2
	st := openStore(t)
	man, _, err := Build(context.Background(), st, benches, cfgs, BuildConfig{
		Name: "equiv", Heatmap: hm, MaxWindows: 5, ShardWindows: 3, MinHitRate: minHR, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := OpenDataset(st, man)
	if err != nil {
		t.Fatal(err)
	}

	var want []core.Sample
	for _, cfg := range cfgs {
		for _, b := range benches {
			pairs, hr := materialise(t, b, cfg, hm, 5)
			if hr < minHR {
				continue
			}
			params := core.CacheParams(cfg)
			for _, pr := range pairs {
				want = append(want, core.Sample{Access: pr.Access, Miss: pr.Miss, Params: params, Bench: b.Name})
			}
		}
	}
	if ds.Len() != len(want) {
		t.Fatalf("dataset serves %d samples, materialised path has %d", ds.Len(), len(want))
	}
	for i := range want {
		got, err := ds.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("sample %d differs from materialised pipeline", i)
		}
	}
}

// A rebuild over a warm store must simulate nothing and reproduce the
// manifest exactly.
func TestBuildMemoised(t *testing.T) {
	hm := testGeom()
	benches, cfgs := testBenches()[:3], testCfgs()[:1]
	st := openStore(t)
	bc := BuildConfig{Name: "memo", Heatmap: hm, ShardWindows: 4, Workers: 2}
	man1, sm1, err := Build(context.Background(), st, benches, cfgs, bc)
	if err != nil {
		t.Fatal(err)
	}
	before := metrics.SimRuns.Value()
	man2, sm2, err := Build(context.Background(), st, benches, cfgs, bc)
	if err != nil {
		t.Fatal(err)
	}
	if d := metrics.SimRuns.Value() - before; d != 0 {
		t.Fatalf("warm rebuild ran the simulator %d times", d)
	}
	if !reflect.DeepEqual(man1, man2) {
		t.Fatal("warm rebuild changed the manifest")
	}
	if sm1.Digest != sm2.Digest {
		t.Fatal("warm rebuild changed the dataset digest")
	}
}

// One store must keep two caches of one shape apart when they differ in
// anything that changes the simulation. Item and shard keys once
// rendered the cache with %+v, which calls Config.String and prints
// sets×ways only, so whichever policy was built first served its
// windows and hit rate for the other.
func TestBuildKeysOnWholeCacheConfig(t *testing.T) {
	hm := testGeom()
	benches := testBenches()[:1]
	lru := cachesim.Config{Sets: 64, Ways: 12, Policy: cachesim.PolicyLRU}
	fifo := cachesim.Config{Sets: 64, Ways: 12, Policy: cachesim.PolicyFIFO}
	_, wantLRU := materialise(t, benches[0], lru, hm, 0)
	_, wantFIFO := materialise(t, benches[0], fifo, hm, 0)
	if wantLRU == wantFIFO {
		t.Fatalf("test benchmark does not tell LRU from FIFO (hit rate %v under both)", wantLRU)
	}
	st := openStore(t)
	bc := BuildConfig{Name: "policies", Heatmap: hm, ShardWindows: 4, Workers: 1}
	man, _, err := Build(context.Background(), st, benches, []cachesim.Config{lru, fifo}, bc)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Items) != 2 {
		t.Fatalf("%d items, want 2", len(man.Items))
	}
	if got := man.Items[0].HitRate; got != wantLRU {
		t.Errorf("LRU item hit rate %v, want %v", got, wantLRU)
	}
	if got := man.Items[1].HitRate; got != wantFIFO {
		t.Errorf("FIFO item hit rate %v, want %v (LRU's is %v)", got, wantFIFO, wantLRU)
	}
}

// A corrupt item must be named with its replacement policy: %v of a
// cachesim.Config prints sets and ways alone, which reads the same for
// the LRU and the FIFO item of one shape.
func TestCorruptItemErrorNamesPolicy(t *testing.T) {
	lru := cachesim.Config{Sets: 64, Ways: 12, Policy: cachesim.PolicyLRU}
	fifo := cachesim.Config{Sets: 64, Ways: 12, Policy: cachesim.PolicyFIFO}
	st := openStore(t)
	man, _, err := Build(context.Background(), st, testBenches()[:1], []cachesim.Config{lru, fifo},
		BuildConfig{Name: "policies", Heatmap: testGeom(), ShardWindows: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	it := &man.Items[1]
	if it.Cache.Policy != cachesim.PolicyFIFO || len(it.Shards) == 0 {
		t.Fatalf("item 1 is %v with %d shards, want a FIFO item with shards", it.Cache.Policy, len(it.Shards))
	}
	it.Shards[0].Windows++
	_, verr := man.Verify(st)
	_, oerr := OpenDataset(st, man)
	for name, err := range map[string]error{"Verify": verr, "OpenDataset": oerr} {
		if err == nil || !strings.Contains(err.Error(), "fifo") {
			t.Errorf("%s error %v does not name the FIFO policy", name, err)
		}
	}
}

// Builds at different worker counts must publish byte-identical
// manifests (par.Map commits in index order).
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	hm := testGeom()
	benches, cfgs := testBenches(), testCfgs()
	enc := func(workers int) []byte {
		st := openStore(t)
		man, _, err := Build(context.Background(), st, benches, cfgs, BuildConfig{
			Name: "det", Heatmap: hm, ShardWindows: 3, Workers: workers,
			Sampling: &sampling.Config{K: 4, Seed: 7},
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(man)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(enc(1), enc(8)) {
		t.Fatal("sampled build differs between -j1 and -j8")
	}
}

// Sampling must simulate at least 3× fewer items than the exhaustive
// build (which simulates every item once) and serve weighted
// representatives.
func TestSampledBuildSkipsSimulation(t *testing.T) {
	hm := heatmap.DefaultConfig()
	hm.Height, hm.Width, hm.WindowInstr = 16, 16, 150
	benches := append(workload.SpecLike(4, 2, 8000).Benchmarks, workload.ZipfLike(8000, 0.15).Benchmarks...)
	cfgs := []cachesim.Config{
		{Sets: 64, Ways: 12, BlockSize: 64, Policy: cachesim.PolicyLRU},
		{Sets: 128, Ways: 6, BlockSize: 64, Policy: cachesim.PolicyLRU},
	}
	st := openStore(t)
	simBefore, skipBefore := metrics.SimRuns.Value(), metrics.SamplingSimSkipped.Value()
	man, _, err := Build(context.Background(), st, benches, cfgs, BuildConfig{
		Name: "sampled", Heatmap: hm, MaxWindows: 20, ShardWindows: 4, Workers: 2,
		Sampling: &sampling.Config{K: 4, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sims := metrics.SimRuns.Value() - simBefore
	skips := metrics.SamplingSimSkipped.Value() - skipBefore
	if items := len(benches) * len(cfgs); sims == 0 || uint64(items) < 3*sims {
		t.Fatalf("sampled build simulated %d of %d items, want at least 3x fewer", sims, items)
	}
	if skips == 0 {
		t.Fatal("sampled build skipped no items")
	}
	if man.Sampling == nil || man.Sampling.Representatives == 0 {
		t.Fatalf("manifest sampling info missing: %+v", man.Sampling)
	}
	ds, err := OpenDataset(st, man)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() == 0 {
		t.Fatal("sampled dataset is empty")
	}
	wsum := 0.0
	for i := 0; i < ds.Len(); i++ {
		s, err := ds.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if s.Weight <= 0 {
			t.Fatalf("sample %d has non-positive weight %v", i, s.Weight)
		}
		wsum += s.Weight
	}
	// Per-bench caps can drop representatives whose items were
	// filtered, but the mean weight of the kept population must stay
	// near 1 per cache config sweep.
	if wsum == 0 {
		t.Fatal("all weights zero")
	}
	if n, err := man.Verify(st); err != nil || n == 0 {
		t.Fatalf("verify: %d shards, err=%v", n, err)
	}
}

func TestLoadManifestByDigest(t *testing.T) {
	hm := testGeom()
	st := openStore(t)
	man, sm, err := Build(context.Background(), st, testBenches()[:2], testCfgs()[:1], BuildConfig{
		Name: "load", Heatmap: hm, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	back, sm2, err := LoadManifest(st, sm.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if sm2.SHA256 != sm.SHA256 {
		t.Fatal("digest load returned a different payload")
	}
	if !reflect.DeepEqual(back, man) {
		t.Fatal("manifest round trip mutated the dataset")
	}
}
