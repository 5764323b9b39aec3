package main

import (
	"context"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"reflect"
	"runtime"
	"time"

	"cachebox/internal/cachesim"
	"cachebox/internal/core"
	"cachebox/internal/harness"
	"cachebox/internal/heatmap"
	"cachebox/internal/par"
	"cachebox/internal/store"
	"cachebox/internal/stream"
	"cachebox/internal/trace"
	"cachebox/internal/workload"
)

// truth-sweep: the ground-truth path. workload, cachesim, heatmap,
// stream, store and par do all the work; core, nn and tensor do none.
const (
	// sweepOps is the per-benchmark access budget: the small profile's.
	// 36 benchmarks × 8 geometries × 120 k ≈ 35 M simulated accesses
	// per sweep, about 1.2 s on two cores, so a phase holds several
	// identical passes.
	sweepOps        = 120_000
	sweepSpecGroups = 10
	sweepSuiteScale = 1.0
	// Shares of -seconds: a sweep pass takes over a second, a read or a
	// hierarchy pass a quarter of one.
	sweepShare     = 0.4
	sweepReadShare = 0.25
)

//go:embed golden
var goldenFS embed.FS

// readGolden reads an embedded golden file; the smoke test swaps it to
// hand the workload a corrupted one.
var readGolden = goldenFS.ReadFile

// goldenName is a workload's golden file of a (seed, scale), which
// exists for seed 1 at full size and at the smoke test's size.
func goldenName(workload string, seed int64, scale float64) string {
	if scale == 1 {
		return fmt.Sprintf("golden/%s.seed%d.json", workload, seed)
	}
	return fmt.Sprintf("golden/%s.seed%d.scale%g.json", workload, seed, scale)
}

// golden loads the workload's golden file of the run's (seed, scale)
// into want and reports whether there is one; other seeds keep every
// cross-check and skip only the comparison. With -write-golden it
// writes got there instead and reports none.
func golden(r *run, workload string, got, want any) (bool, error) {
	if r.opt.writeGolden != "" {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			return false, err
		}
		return false, os.WriteFile(r.opt.writeGolden, append(data, '\n'), 0o644)
	}
	name := goldenName(workload, r.opt.seed, r.opt.scale)
	data, err := readGolden(name)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if err := json.Unmarshal(data, want); err != nil {
		return false, fmt.Errorf("%s: %w", name, err)
	}
	return true, nil
}

// sweepGolden pins the simulated statistics of seed 1: they must repeat
// exactly, whatever happens to host time.
type sweepGolden struct {
	Seed  int64             `json:"seed"`
	Items []sweepGoldenItem `json:"items"`
	// Levels holds each benchmark's L1/L2/L3 counters from the
	// hierarchy pass.
	Levels []sweepGoldenLevels `json:"levels"`
}

type sweepGoldenItem struct {
	Bench   string  `json:"bench"`
	Cache   string  `json:"cache"`
	HitRate float64 `json:"hit_rate"`
	Windows int     `json:"windows"`
}

type sweepGoldenLevels struct {
	Bench  string      `json:"bench"`
	Levels [][3]uint64 `json:"levels"` // accesses, hits, misses
}

// sweepGeometries is the RQ2/RQ3 LRU set plus one FIFO geometry: FIFO
// takes a different replacement path through cachesim than the LRU
// sweep, so a fast path for one that costs the other shows.
//
// The FIFO geometry is 64×8, not the 64×12 the ISSUE named, because
// stream and store key an item by fmt.Sprintf("%+v", cfg), which calls
// cachesim.Config.String, which prints sets and ways only. A build that
// holds 64×12 under both LRU and FIFO therefore memoises the first and
// serves its windows and hit rate for the second. sweep's comparison of
// every streamed item with its built one found that; the fix belongs in
// internal/stream and internal/store, which this benchmark may not edit.
func sweepGeometries() []cachesim.Config {
	cfgs := append([]cachesim.Config{}, harness.RQ2Configs...)
	cfgs = append(cfgs, harness.RQ3Configs...)
	return append(cfgs, cachesim.Config{Sets: 64, Ways: 8, Policy: cachesim.PolicyFIFO})
}

func cacheLabel(c cachesim.Config) string {
	return fmt.Sprintf("%s-%s", c, c.Policy)
}

// sweepSuite is SpecLike + LigraLike + PolyLike with every benchmark's
// seed offset by the run's seed.
func sweepSuite(r *run, specGroups, ops int, suiteScale float64) []workload.Benchmark {
	var benches []workload.Benchmark
	benches = append(benches, workload.SpecLike(specGroups, 1, ops).Benchmarks...)
	benches = append(benches, workload.LigraLike(ops, suiteScale).Benchmarks...)
	benches = append(benches, workload.PolyLike(ops, suiteScale).Benchmarks...)
	for i := range benches {
		benches[i].Seed += r.opt.seed - 1
	}
	// At a reduced -scale keep an even sample of the population.
	if n := r.scaled(len(benches), 8); n < len(benches) {
		for i := 0; i < n; i++ {
			benches[i] = benches[i*len(benches)/n]
		}
		benches = benches[:n]
	}
	return benches
}

type truthSweep struct {
	// man and sman are the dataset the untraced run builds in set-up.
	man  *stream.Manifest
	sman *store.Manifest

	benches  []workload.Benchmark
	cfgs     []cachesim.Config
	hm       heatmap.Config
	traces   []*trace.Trace
	accesses float64 // one trace pass over every benchmark
	root     string
	stores   int
}

func setupTruthSweep(r *run) (state, error) {
	s := &truthSweep{
		benches: sweepSuite(r, r.scaled(sweepSpecGroups, 2), r.scaled(sweepOps, 12_000), sweepSuiteScale),
		cfgs:    sweepGeometries(),
		hm:      harness.ProfileFor(harness.Small).Heatmap,
	}
	// The hierarchy phase simulates materialised traces; synthesising
	// them is input generation, so it is set-up.
	var err error
	s.traces, err = workload.Traces(context.Background(), 0, s.benches)
	if err != nil {
		return nil, err
	}
	for _, t := range s.traces {
		s.accesses += float64(t.Len())
	}
	s.root, err = os.MkdirTemp(r.opt.workDir, "truth-sweep-*")
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *truthSweep) close() error { return os.RemoveAll(s.root) }

// freshStore opens an empty store, so every build into it is cold.
func (s *truthSweep) freshStore() (*store.Store, error) {
	s.stores++
	return store.Open(fmt.Sprintf("%s/store-%d", s.root, s.stores))
}

func (s *truthSweep) build(st *store.Store, benches []workload.Benchmark, workers int) (*stream.Manifest, *store.Manifest, error) {
	return stream.Build(context.Background(), st, benches, s.cfgs,
		stream.BuildConfig{Name: "truth-sweep", Heatmap: s.hm, Workers: workers})
}

// read opens the built dataset afresh and fetches every sample.
func (s *truthSweep) read(r *run, st *store.Store, man *stream.Manifest, check bool) error {
	ds, err := stream.OpenDataset(st, man)
	if err != nil {
		return err
	}
	for i := 0; i < ds.Len(); i++ {
		smp, err := ds.At(i)
		if err != nil {
			return err
		}
		if check {
			r.check(missWithinAccess(smp.Miss, smp.Access), "sample %d (%s): miss exceeds access", i, smp.Bench)
		}
	}
	return nil
}

// sweepItem is one (geometry, benchmark) item in stream.Build's order,
// cache-config major.
type sweepItem struct {
	cfg   cachesim.Config
	bench workload.Benchmark
}

func (s *truthSweep) items() []sweepItem {
	var items []sweepItem
	for _, cfg := range s.cfgs {
		for _, b := range s.benches {
			items = append(items, sweepItem{cfg, b})
		}
	}
	return items
}

// sweep streams every item on every core, synthesis → simulator →
// windows, and keeps nothing: the build without its store. Each item's
// hit rate and window count must equal what the build recorded.
func (s *truthSweep) sweep(r *run, items []sweepItem, man *stream.Manifest) error {
	res, err := par.Map(context.Background(), 0, items, func(ctx context.Context, _ int, it sweepItem) (stream.RunResult, error) {
		return stream.Run(ctx, it.bench, it.cfg, stream.RunConfig{Heatmap: s.hm}, func(stream.Window) error { return nil })
	})
	if err != nil {
		return err
	}
	for i, rr := range res {
		built := man.Items[i]
		r.check(rr.HitRate == built.HitRate && rr.Windows == built.Windows,
			"item %d %s %s: streamed hit rate %v over %d windows, built %v over %d", i, built.Bench, cacheLabel(items[i].cfg), rr.HitRate, rr.Windows, built.HitRate, built.Windows)
	}
	return nil
}

func (s *truthSweep) measure(r *run) error {
	// Set-up, continued: the cold build of the dataset. It is timed only
	// as part of setup_s (and as stream.build_s on the traced run),
	// because its 2 100 file and directory creations cost this host's
	// ext4 anything from 5 to 400 µs each by how many inodes were freed in
	// the last minutes; README.md has the measurements.
	st, err := s.freshStore()
	if err != nil {
		return err
	}
	build, err := timed(func() error {
		var err error
		s.man, s.sman, err = s.build(st, s.benches, 0)
		return err
	})
	if err != nil {
		return err
	}
	man := s.man
	r.info["cold_build_s"] = build
	r.info["windows"] = man.TotalWindows
	s.checkBuild(r, st, man, s.sman)

	// Warm-up, discarded: a checked read of every sample, a sweep of the
	// first geometry and one hierarchy item.
	items := s.items()
	if err := s.read(r, st, man, true); err != nil {
		return err
	}
	if err := s.sweep(r, items[:len(s.benches)], man); err != nil {
		return err
	}
	if _, err := s.hierarchy(0); err != nil {
		return err
	}
	r.ready()

	// Phase 1: the geometry sweep, every item on every core.
	walls, err := repeatFor(r.phase(sweepShare), func() (float64, error) {
		return timed(func() error { return s.sweep(r, items, man) })
	})
	if err != nil {
		return err
	}
	r.set("accesses_per_s", medianRate(s.accesses*float64(len(s.cfgs)), walls))
	r.info["sweep_passes"] = len(walls)

	// Phase 2: fresh OpenDataset + At over every sample (reads).
	walls, err = repeatFor(r.phase(sweepReadShare), func() (float64, error) {
		return timed(func() error { return s.read(r, st, man, false) })
	})
	if err != nil {
		return err
	}
	r.set("windows_per_s", medianRate(float64(man.TotalWindows), walls))
	r.info["read_passes"] = len(walls)

	// Phase 3: three-level hierarchy + per-level pairs, one latency
	// sample per benchmark.
	lat := make([][]float64, len(s.benches))
	var levels []sweepGoldenLevels
	walls, err = repeatFor(r.phase(1-sweepShare-sweepReadShare), func() (float64, error) {
		levels = levels[:0]
		return timed(func() error {
			for i := range s.benches {
				t0 := time.Now()
				lv, err := s.hierarchy(i)
				if err != nil {
					return err
				}
				lat[i] = append(lat[i], time.Since(t0).Seconds()*1e3)
				levels = append(levels, lv)
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	r.set("p50_ms", itemQuantile(lat, 0.5))
	r.set("p90_ms", itemQuantile(lat, 0.9))
	r.info["hierarchy_passes"] = len(walls)
	r.info["hierarchy_accesses_per_s"] = medianRate(s.accesses, walls)
	r.info["latency_items"] = len(lat)
	//lint:ignore determinism-taint the golden holds simulated statistics only; the clock times the passes around them
	return s.checkGolden(r, sweepGolden{Seed: r.opt.seed, Items: goldenItems(man), Levels: levels})
}

// checkGolden checks the counters' own arithmetic and, where the run's
// (seed, scale) has a golden file, that the simulated statistics equal
// it exactly. Other seeds keep every cross-check and skip only that.
func (s *truthSweep) checkGolden(r *run, got sweepGolden) error {
	for _, lv := range got.Levels {
		for l, c := range lv.Levels {
			r.check(c[1]+c[2] == c[0], "%s L%d: hits %d + misses %d != accesses %d", lv.Bench, l+1, c[1], c[2], c[0])
		}
	}
	var want sweepGolden
	found, err := golden(r, "truth-sweep", got, &want)
	if err != nil || !found {
		return err
	}
	r.check(len(got.Items) == len(want.Items), "build has %d items, the golden has %d", len(got.Items), len(want.Items))
	for i := 0; i < len(got.Items) && i < len(want.Items); i++ {
		r.check(got.Items[i] == want.Items[i], "item %d: got %+v, golden %+v", i, got.Items[i], want.Items[i])
	}
	r.check(len(got.Levels) == len(want.Levels), "hierarchy ran %d benchmarks, the golden has %d", len(got.Levels), len(want.Levels))
	for i := 0; i < len(got.Levels) && i < len(want.Levels); i++ {
		r.check(reflect.DeepEqual(got.Levels[i], want.Levels[i]), "hierarchy: got %+v, golden %+v", got.Levels[i], want.Levels[i])
	}
	return nil
}

// checkBuild runs the build's own correctness checks: a warm rebuild
// publishes the same bytes and every shard verifies.
func (s *truthSweep) checkBuild(r *run, st *store.Store, man *stream.Manifest, sman *store.Manifest) {
	_, warm, err := s.build(st, s.benches, 0)
	r.check(err == nil && warm.SHA256 == sman.SHA256, "warm rebuild digest differs from cold (err %v)", err)
	_, err = man.Verify(st)
	r.check(err == nil, "Manifest.Verify: %v", err)
}

func goldenItems(man *stream.Manifest) []sweepGoldenItem {
	items := make([]sweepGoldenItem, len(man.Items))
	for i, it := range man.Items {
		items[i] = sweepGoldenItem{Bench: it.Bench, Cache: cacheLabel(it.Cache), HitRate: it.HitRate, Windows: it.Windows}
	}
	return items
}

// hierarchy simulates benchmark i on L1/L2/L3 and windows every level.
func (s *truthSweep) hierarchy(i int) (sweepGoldenLevels, error) {
	out := sweepGoldenLevels{Bench: s.benches[i].Name}
	h, err := cachesim.NewHierarchy(harness.HierarchyConfigs...)
	if err != nil {
		return out, err
	}
	for _, lt := range cachesim.RunHierarchy(h, s.traces[i]) {
		if _, err := heatmap.BuildPair(s.hm, lt.Accesses, lt.Misses); err != nil {
			return out, err
		}
		out.Levels = append(out.Levels, [3]uint64{lt.Stats.Accesses, lt.Stats.Hits, lt.Stats.Misses})
	}
	return out, nil
}

func missWithinAccess(miss, access *heatmap.Heatmap) bool {
	if len(miss.Pix) != len(access.Pix) {
		return false
	}
	for i, m := range miss.Pix {
		if m > access.Pix[i] {
			return false
		}
	}
	return true
}

var truthSweepLayers = []string{
	"trace_overhead", "trace_attributed_share",
	"workload.trace_s", "workload.accesses_per_s",
	"cachesim.run_s", "cachesim.lru_accesses_per_s", "cachesim.fifo_accesses_per_s",
	"cachesim.hits", "cachesim.misses",
	"cachesim.hierarchy_run_s", "cachesim.hierarchy_accesses_per_s",
	"heatmap.pairs_s", "heatmap.windows_per_s",
	"stream.run_s", "stream.build_s", "stream.windows", "stream.shards", "stream.fetch_s",
	"store.save_pairs_mib_per_s", "store.load_pairs_mib_per_s", "store.bytes_written", "store.bytes_read",
	"par.build_speedup",
}

// layers is the traced run: the fused stream.Build replaced by
// Trace → RunTrace → BuildPair → SavePairs per item, each in a span,
// then the stream, store, par and hierarchy layers on their own.
func (s *truthSweep) layers(r *run) error {
	tr := r.tr
	st, err := s.freshStore()
	if err != nil {
		return err
	}

	// Untraced reference: the fused build on one worker, which is what
	// the serial staged pass below replaces.
	t0 := time.Now()
	man1, sman1, err := s.build(st, s.benches, 1)
	if err != nil {
		return err
	}
	buildJ1 := time.Since(t0).Seconds()
	stN, err := s.freshStore()
	if err != nil {
		return err
	}
	t0 = time.Now()
	_, smanN, err := s.build(stN, s.benches, 0)
	if err != nil {
		return err
	}
	buildJN := time.Since(t0).Seconds()
	r.check(sman1.SHA256 == smanN.SHA256, "Workers 1 digest %s != Workers %d digest %s", sman1.SHA256, runtime.GOMAXPROCS(0), smanN.SHA256)
	s.checkBuild(r, st, man1, sman1)
	shards := 0
	for _, it := range man1.Items {
		shards += len(it.Shards)
	}
	r.set("stream.build_s", buildJN)
	r.set("stream.windows", float64(man1.TotalWindows))
	r.set("stream.shards", float64(shards))
	r.set("par.build_speedup", buildJ1/buildJN)
	r.info["par.build_j1_s"] = buildJ1
	r.info["par.build_jN_s"] = buildJN

	// Staged pass.
	pst, err := s.freshStore()
	if err != nil {
		return err
	}
	var hits, misses, lruAcc, fifoAcc uint64
	var lruS, fifoS float64
	windows := 0
	var keys []store.Key
	root := tr.start("truth-sweep", -1, -1)
	item := 0
	for _, cfg := range s.cfgs {
		for _, b := range s.benches {
			// Like the fused build, every item synthesises its own trace.
			var t *trace.Trace
			tr.in("workload", root, item, func() { t = b.Trace() })
			id := tr.start("cachesim", root, item)
			lt := cachesim.RunTrace(cachesim.New(cfg), t)
			tr.end(id)
			if cfg.Policy == cachesim.PolicyFIFO {
				fifoAcc += lt.Stats.Accesses
				fifoS += tr.seconds(id)
			} else {
				lruAcc += lt.Stats.Accesses
				lruS += tr.seconds(id)
			}
			hits += lt.Stats.Hits
			misses += lt.Stats.Misses
			var pairs []heatmap.Pair
			tr.in("heatmap", root, item, func() { pairs, err = heatmap.BuildPair(s.hm, lt.Accesses, lt.Misses) })
			if err != nil {
				return err
			}
			windows += len(pairs)
			built := man1.Items[item]
			r.check(lt.HitRate() == built.HitRate && len(pairs) == built.Windows,
				"item %d %s %s: staged hit rate %v over %d windows, built %v over %d", item, b.Name, cacheLabel(cfg), lt.HitRate(), len(pairs), built.HitRate, built.Windows)
			key := store.PairsKey(b, cfg, s.hm, 0, r.opt.seed)
			tr.in("store", root, item, func() {
				err = pst.SavePairs(key, &store.PairsArtifact{Pairs: pairs, HitRate: lt.HitRate()})
			})
			if err != nil {
				return err
			}
			keys = append(keys, key)
			item++
		}
	}
	tr.end(root)
	self := tr.selfSeconds(root)
	staged := tr.seconds(root)
	r.set("trace_overhead", staged/buildJ1)
	r.set("trace_attributed_share", (staged-self["truth-sweep"])/staged)
	r.set("workload.trace_s", self["workload"])
	r.set("workload.accesses_per_s", s.accesses*float64(len(s.cfgs))/self["workload"])
	r.set("cachesim.run_s", self["cachesim"])
	r.set("cachesim.lru_accesses_per_s", float64(lruAcc)/lruS)
	r.set("cachesim.fifo_accesses_per_s", float64(fifoAcc)/fifoS)
	r.set("cachesim.hits", float64(hits))
	r.set("cachesim.misses", float64(misses))
	r.set("heatmap.pairs_s", self["heatmap"])
	r.set("heatmap.windows_per_s", float64(windows)/self["heatmap"])

	// store: bytes written by the staged pass, then read back.
	entries, err := pst.Entries()
	if err != nil {
		return err
	}
	var bytes int64
	for _, e := range entries {
		bytes += e.Size
	}
	mib := float64(bytes) / (1 << 20)
	r.set("store.bytes_written", float64(bytes))
	r.set("store.save_pairs_mib_per_s", mib/self["store"])
	read0, err := readChars()
	if err != nil {
		return err
	}
	load := tr.start("store", -1, -1)
	for _, k := range keys {
		if _, err := pst.LoadPairs(k); err != nil {
			return err
		}
	}
	tr.end(load)
	read1, err := readChars()
	if err != nil {
		return err
	}
	r.set("store.bytes_read", read1-read0)
	r.set("store.load_pairs_mib_per_s", mib/tr.seconds(load))

	// stream.Run per item: synthesis + simulation + windowing through
	// the bounded channel, nothing stored.
	run := tr.start("stream", -1, -1)
	for _, cfg := range s.cfgs {
		for _, b := range s.benches {
			_, err := stream.Run(context.Background(), b, cfg, stream.RunConfig{Heatmap: s.hm},
				func(stream.Window) error { return nil })
			if err != nil {
				return err
			}
		}
	}
	tr.end(run)
	r.set("stream.run_s", tr.seconds(run))

	// Dataset.At over the built dataset: the fetch layer on its own.
	ds, err := stream.OpenDataset(st, man1)
	if err != nil {
		return err
	}
	src := &timedSource{src: ds}
	for i := 0; i < src.Len(); i++ {
		if _, err := src.At(i); err != nil {
			return err
		}
	}
	r.set("stream.fetch_s", src.seconds)

	// Hierarchy pass with the simulator and the windowing apart.
	var levels []sweepGoldenLevels
	hroot := tr.start("hierarchy", -1, -1)
	for i, b := range s.benches {
		h, err := cachesim.NewHierarchy(harness.HierarchyConfigs...)
		if err != nil {
			return err
		}
		var lts []cachesim.LevelTrace
		tr.in("cachesim.hierarchy", hroot, i, func() { lts = cachesim.RunHierarchy(h, s.traces[i]) })
		lv := sweepGoldenLevels{Bench: b.Name}
		for _, lt := range lts {
			tr.in("heatmap", hroot, i, func() { _, err = heatmap.BuildPair(s.hm, lt.Accesses, lt.Misses) })
			if err != nil {
				return err
			}
			lv.Levels = append(lv.Levels, [3]uint64{lt.Stats.Accesses, lt.Stats.Hits, lt.Stats.Misses})
		}
		levels = append(levels, lv)
	}
	tr.end(hroot)
	hself := tr.selfSeconds(hroot)
	r.set("cachesim.hierarchy_run_s", hself["cachesim.hierarchy"])
	r.set("cachesim.hierarchy_accesses_per_s", s.accesses/tr.seconds(hroot))
	//lint:ignore determinism-taint the golden holds simulated statistics only; the clock times the passes around them
	return s.checkGolden(r, sweepGolden{Seed: r.opt.seed, Items: goldenItems(man1), Levels: levels})
}

// timedSource is a core.SampleSource that times every fetch.
type timedSource struct {
	src     core.SampleSource
	seconds float64
	fetches int
}

func (t *timedSource) Len() int { return t.src.Len() }

func (t *timedSource) At(i int) (core.Sample, error) {
	t0 := time.Now()
	s, err := t.src.At(i)
	t.seconds += time.Since(t0).Seconds()
	t.fetches++
	return s, err
}
