package stream

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"cachebox/internal/cachesim"
	"cachebox/internal/heatmap"
	"cachebox/internal/metrics"
	"cachebox/internal/obs"
	"cachebox/internal/par"
	"cachebox/internal/sampling"
	"cachebox/internal/store"
	"cachebox/internal/workload"
)

// BuildConfig controls a dataset build.
type BuildConfig struct {
	// Name labels the dataset in its manifest.
	Name string
	// Heatmap is the window geometry.
	Heatmap heatmap.Config
	// MaxWindows caps windows per item; 0 means all.
	MaxWindows int
	// ShardWindows is the number of windows per stored shard; 0
	// defaults to 64.
	ShardWindows int
	// MinHitRate filters items whose simulated hit rate falls below
	// it (matching Truth.Samples' filter).
	MinHitRate float64
	// Workers bounds build parallelism; 0 means GOMAXPROCS.
	Workers int
	// Sampling, when set, enables representative-interval sampling:
	// only cluster-representative windows are simulated into shards,
	// carrying their cluster-share training weights.
	Sampling *sampling.Config
}

func (bc BuildConfig) withDefaults() BuildConfig {
	if bc.ShardWindows <= 0 {
		bc.ShardWindows = 64
	}
	if bc.Name == "" {
		bc.Name = "dataset"
	}
	return bc
}

// itemSummary is the per-item memo persisted under KindItem: a warm
// rebuild loads it instead of simulating, leaving sim_runs at zero.
type itemSummary struct {
	HitRate  float64    `json:"hit_rate"`
	Windows  int        `json:"windows"`
	Complete bool       `json:"complete"`
	Skipped  bool       `json:"skipped,omitempty"`
	Shards   []ShardRef `json:"shards,omitempty"`
}

// shardCutter groups a run's windows into fixed-size shards and
// publishes each to the store as it fills.
type shardCutter struct {
	st    *store.Store
	bc    BuildConfig
	bench workload.Benchmark
	cfg   cachesim.Config

	buf   []ShardWindow
	refs  []ShardRef
	total int
}

func (c *shardCutter) add(w ShardWindow) error {
	c.buf = append(c.buf, w)
	c.total++
	if len(c.buf) >= c.bc.ShardWindows {
		return c.flush()
	}
	return nil
}

func (c *shardCutter) flush() error {
	if len(c.buf) == 0 {
		return nil
	}
	k := shardKey(c.bc, c.bench, c.cfg, len(c.refs))
	sm, err := c.st.Put(k, func(w io.Writer) error { return EncodeShard(w, c.buf) })
	if err != nil {
		return err
	}
	c.refs = append(c.refs, ShardRef{Digest: sm.Digest, SHA256: sm.SHA256, Windows: len(c.buf)})
	c.buf = c.buf[:0]
	return nil
}

// Build streams every benchmark × cache configuration item into
// sharded store entries and publishes the dataset manifest. Items are
// memoised individually: a rerun over a warm store simulates nothing.
// With bc.Sampling set, ground truth is simulated only for cluster
// representatives (and items owning none are skipped outright); the
// emitted weights make the thinned dataset train as a population
// estimate. The manifest's item order is cache-config major, matching
// Truth.Samples, so an exhaustive dataset serves the exact sample
// sequence the in-memory assembler produces.
func Build(ctx context.Context, st *store.Store, benches []workload.Benchmark, cfgs []cachesim.Config, bc BuildConfig) (*Manifest, *store.Manifest, error) {
	bc = bc.withDefaults()
	if st == nil {
		return nil, nil, fmt.Errorf("stream: Build requires a store")
	}
	if err := bc.Heatmap.Validate(); err != nil {
		return nil, nil, err
	}
	if len(benches) == 0 || len(cfgs) == 0 {
		return nil, nil, fmt.Errorf("stream: Build requires benchmarks and cache configs")
	}
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, nil, err
		}
	}

	var plan *sampling.Plan
	if bc.Sampling != nil {
		var err error
		plan, err = sampling.BuildPlan(ctx, benches, bc.Heatmap, bc.MaxWindows, *bc.Sampling, bc.Workers)
		if err != nil {
			return nil, nil, err
		}
	}

	type buildItem struct {
		bench workload.Benchmark
		cfg   cachesim.Config
	}
	items := make([]buildItem, 0, len(benches)*len(cfgs))
	for _, cfg := range cfgs {
		for _, b := range benches {
			items = append(items, buildItem{b, cfg})
		}
	}

	built, err := par.Map(ctx, bc.Workers, items, func(ctx context.Context, i int, it buildItem) (Item, error) {
		return buildOne(ctx, st, bc, plan, it.bench, it.cfg)
	})
	if err != nil {
		return nil, nil, err
	}

	man := &Manifest{
		Format:       ManifestFormat,
		Name:         bc.Name,
		Heatmap:      bc.Heatmap,
		MaxWindows:   bc.MaxWindows,
		ShardWindows: bc.ShardWindows,
		MinHitRate:   bc.MinHitRate,
		Items:        built,
	}
	if plan != nil {
		man.Sampling = &SamplingInfo{
			Config:          plan.Config,
			TotalWindows:    plan.TotalWindows,
			Representatives: plan.Representatives(),
		}
	}
	for _, it := range built {
		if it.usable() {
			man.TotalWindows += it.Windows
		}
	}

	payload, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, nil, fmt.Errorf("stream: encode manifest: %w", err)
	}
	sm, err := st.Put(datasetKey(bc, benches, cfgs), func(w io.Writer) error {
		_, werr := w.Write(payload)
		return werr
	})
	if err != nil {
		return nil, nil, err
	}
	return man, sm, nil
}

// buildOne produces (or recalls) one benchmark × cache item.
func buildOne(ctx context.Context, st *store.Store, bc BuildConfig, plan *sampling.Plan, bench workload.Benchmark, cfg cachesim.Config) (Item, error) {
	out := Item{
		Bench: bench.Name,
		Group: bench.Group,
		Suite: bench.Suite,
		Ops:   bench.Ops,
		Seed:  bench.Seed,
		Cache: cfg,
	}
	key := itemKey(bc, bench, cfg)
	if data, _, err := st.GetBytes(key); err == nil {
		var sum itemSummary
		if jerr := json.Unmarshal(data, &sum); jerr == nil {
			return finishItem(out, bc, sum), nil
		}
		// Corrupt memo: fall through and rebuild it.
	}

	var sum itemSummary
	if plan != nil {
		pi := plan.Item(bench.Name)
		if pi == nil {
			return out, fmt.Errorf("stream: sampling plan has no entry for %s", bench.Name)
		}
		if len(pi.Reps) == 0 {
			// No cluster chose a window here: skip the simulation
			// entirely — this is where sampling's savings come from.
			metrics.SamplingSimSkipped.Inc()
			sum = itemSummary{HitRate: -1, Skipped: true}
		} else {
			var err error
			sum, err = simulateReps(ctx, st, bc, bench, cfg, pi)
			if err != nil {
				return out, err
			}
		}
	} else {
		cut := &shardCutter{st: st, bc: bc, bench: bench, cfg: cfg}
		res, err := Run(ctx, bench, cfg, RunConfig{Heatmap: bc.Heatmap, MaxWindows: bc.MaxWindows},
			func(w Window) error {
				return cut.add(ShardWindow{Access: w.Pair.Access, Miss: w.Pair.Miss})
			})
		if err != nil {
			return out, err
		}
		if err := cut.flush(); err != nil {
			return out, err
		}
		sum = itemSummary{HitRate: res.HitRate, Windows: cut.total, Complete: res.Complete, Shards: cut.refs}
	}

	payload, err := json.Marshal(sum)
	if err != nil {
		return out, fmt.Errorf("stream: encode item summary: %w", err)
	}
	if _, err := st.Put(key, func(w io.Writer) error {
		_, werr := w.Write(payload)
		return werr
	}); err != nil {
		return out, err
	}
	return finishItem(out, bc, sum), nil
}

// simulateReps runs the cache only far enough to capture an item's
// representative windows, storing them with their cluster weights.
func simulateReps(ctx context.Context, st *store.Store, bc BuildConfig, bench workload.Benchmark, cfg cachesim.Config, pi *sampling.PlanItem) (itemSummary, error) {
	repW := make(map[int]float64, len(pi.Reps))
	maxNeeded := 0
	for _, r := range pi.Reps {
		repW[r.Window] = r.Weight
		if r.Window+1 > maxNeeded {
			maxNeeded = r.Window + 1
		}
	}
	ctx, span := obs.Start(ctx, "sampling.sim_rep")
	span.Tag("bench", bench.Name)
	span.TagInt("reps", len(pi.Reps))
	defer span.End()

	cut := &shardCutter{st: st, bc: bc, bench: bench, cfg: cfg}
	res, err := Run(ctx, bench, cfg, RunConfig{Heatmap: bc.Heatmap, MaxWindows: maxNeeded, StopEarly: true},
		func(w Window) error {
			if wt, ok := repW[w.Index]; ok {
				return cut.add(ShardWindow{Access: w.Pair.Access, Miss: w.Pair.Miss, Weight: wt})
			}
			return nil
		})
	if err != nil {
		return itemSummary{}, err
	}
	if err := cut.flush(); err != nil {
		return itemSummary{}, err
	}
	return itemSummary{HitRate: res.HitRate, Windows: cut.total, Complete: res.Complete, Shards: cut.refs}, nil
}

// finishItem folds a summary into the item and applies the hit-rate
// filter (only items with a known whole-trace hit rate can be
// filtered, mirroring Truth.Samples' `HitRate < minHitRate` skip).
func finishItem(it Item, bc BuildConfig, sum itemSummary) Item {
	it.HitRate = sum.HitRate
	it.Windows = sum.Windows
	it.Skipped = sum.Skipped
	it.Shards = sum.Shards
	if !sum.Skipped && sum.Complete && sum.HitRate < bc.MinHitRate {
		it.Filtered = true
	}
	return it
}

// LoadManifest fetches a dataset manifest by its store digest.
func LoadManifest(st *store.Store, digest string) (*Manifest, *store.Manifest, error) {
	rc, sm, err := st.OpenDigest(digest)
	if err != nil {
		return nil, nil, err
	}
	//lint:ignore unchecked-error read-only handle; ReadAll below already surfaces any I/O failure
	defer rc.Close()
	if sm.Kind != KindDataset {
		return nil, nil, fmt.Errorf("stream: %s is a %q entry, not a dataset", digest, sm.Kind)
	}
	data, err := io.ReadAll(rc)
	if err != nil {
		return nil, nil, err
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, nil, fmt.Errorf("stream: decode manifest %s: %w", digest, err)
	}
	return &man, sm, nil
}

// Verify opens and decodes every shard the manifest references,
// checking content hashes and window counts. It returns the number of
// shards checked.
func (m *Manifest) Verify(st *store.Store) (int, error) {
	checked := 0
	for _, it := range m.Items {
		for i, ref := range it.Shards {
			rc, sm, err := st.OpenDigest(ref.Digest)
			if err != nil {
				return checked, fmt.Errorf("%s shard %d: %w", it.label(), i, err)
			}
			if sm.SHA256 != ref.SHA256 {
				//lint:ignore unchecked-error read-only handle being abandoned on a verification failure
				rc.Close()
				return checked, fmt.Errorf("%s shard %d: content hash %s != manifest %s",
					it.label(), i, sm.SHA256, ref.SHA256)
			}
			ws, err := DecodeShard(rc)
			//lint:ignore unchecked-error read-only handle; DecodeShard already surfaced any I/O failure
			rc.Close()
			if err != nil {
				return checked, fmt.Errorf("%s shard %d: %w", it.label(), i, err)
			}
			if len(ws) != ref.Windows {
				return checked, fmt.Errorf("%s shard %d: %d windows, manifest says %d",
					it.label(), i, len(ws), ref.Windows)
			}
			checked++
		}
	}
	return checked, nil
}
