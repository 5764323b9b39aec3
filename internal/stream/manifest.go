package stream

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"cachebox/internal/cachesim"
	"cachebox/internal/heatmap"
	"cachebox/internal/sampling"
	"cachebox/internal/store"
	"cachebox/internal/workload"
)

// Store kinds and formats for the streaming dataset subsystem. A
// dataset is three layers of content-addressed entries: per-item
// shards ("dataset-shard", binary shard codec), per-item summaries
// ("dataset-item", JSON, the memoisation unit that lets warm rebuilds
// skip simulation entirely), and the dataset manifest ("dataset",
// JSON, the handle CLIs pass around).
const (
	KindShard   = "dataset-shard"
	KindItem    = "dataset-item"
	KindDataset = "dataset"

	ShardFormat    = 1
	ItemFormat     = 1
	ManifestFormat = 1
)

// ShardRef points at one stored shard.
type ShardRef struct {
	// Digest is the store key digest (for OpenDigest).
	Digest string `json:"digest"`
	// SHA256 is the payload content hash, so shards can be pulled and
	// verified by content alone.
	SHA256 string `json:"sha256"`
	// Windows is the number of windows in the shard.
	Windows int `json:"windows"`
}

// Item is one benchmark × cache configuration entry of a dataset.
type Item struct {
	Bench string          `json:"bench"`
	Group string          `json:"group"`
	Suite string          `json:"suite"`
	Ops   int             `json:"ops"`
	Seed  int64           `json:"seed"`
	Cache cachesim.Config `json:"cache"`

	// HitRate is the whole-trace simulated hit rate, or -1 when the
	// item's simulation stopped early (sampled builds) or was skipped.
	// (-1, not NaN: the manifest must survive encoding/json.)
	HitRate float64 `json:"hit_rate"`
	// Windows is the number of windows persisted in Shards.
	Windows int `json:"windows"`
	// Filtered marks items excluded from the sample index because
	// their hit rate fell below the build's MinHitRate.
	Filtered bool `json:"filtered,omitempty"`
	// Skipped marks items never simulated because representative
	// sampling selected no window from them.
	Skipped bool `json:"skipped,omitempty"`
	// Shards lists the item's window shards in order.
	Shards []ShardRef `json:"shards,omitempty"`
}

// label names the item for people: benchmark, shape and replacement
// policy. %v of a cachesim.Config prints sets and ways alone, so it
// cannot tell an LRU item from the FIFO item of the same shape.
func (it Item) label() string {
	return fmt.Sprintf("%s/%v-%v", it.Bench, it.Cache, it.Cache.Policy)
}

// usable reports whether the item contributes samples.
func (it Item) usable() bool { return !it.Filtered && !it.Skipped && it.Windows > 0 }

// SamplingInfo records how a sampled dataset was thinned.
type SamplingInfo struct {
	Config sampling.Config `json:"config"`
	// TotalWindows is the window population N the plan clustered.
	TotalWindows int `json:"total_windows"`
	// Representatives is the number of windows kept (one per
	// non-empty cluster).
	Representatives int `json:"representatives"`
}

// Manifest describes one built dataset. It is persisted as JSON under
// the "dataset" kind and is the unit cbx-dataset manipulates.
type Manifest struct {
	Format int    `json:"format"`
	Name   string `json:"name"`

	Heatmap      heatmap.Config `json:"heatmap"`
	MaxWindows   int            `json:"max_windows"`
	ShardWindows int            `json:"shard_windows"`
	MinHitRate   float64        `json:"min_hit_rate"`

	// Sampling is set on representative-sampled builds.
	Sampling *SamplingInfo `json:"sampling,omitempty"`

	// Items holds every benchmark × cache entry in dataset order
	// (cache-config major, matching Truth.Samples).
	Items []Item `json:"items"`
	// TotalWindows is the number of samples the dataset serves (the
	// sum of usable items' windows).
	TotalWindows int `json:"total_windows"`
}

// mode renders the build variant that keys shards and items: sampled
// and exhaustive builds of the same item must never share entries.
func (bc BuildConfig) mode() string {
	if bc.Sampling == nil {
		return "full"
	}
	c := *bc.Sampling
	return fmt.Sprintf("sampled:k=%d,dim=%d,iter=%d,seed=%d", c.K, c.SignatureDim, c.MaxIter, c.Seed)
}

// itemInputs is the shared identity of one benchmark × cache item
// under a build configuration.
func itemInputs(bc BuildConfig, b workload.Benchmark, cfg cachesim.Config) map[string]string {
	return map[string]string{
		"bench":         b.Name,
		"group":         b.Group,
		"suite":         b.Suite,
		"bench_ops":     fmt.Sprintf("%d", b.Ops),
		"bench_seed":    fmt.Sprintf("%d", b.Seed),
		"cache":         cfg.CacheKey(),
		"heatmap":       fmt.Sprintf("%+v", bc.Heatmap),
		"max_windows":   fmt.Sprintf("%d", bc.MaxWindows),
		"shard_windows": fmt.Sprintf("%d", bc.ShardWindows),
		"mode":          bc.mode(),
	}
}

// shardKey keys the idx-th shard of an item.
func shardKey(bc BuildConfig, b workload.Benchmark, cfg cachesim.Config, idx int) store.Key {
	in := itemInputs(bc, b, cfg)
	in["shard"] = fmt.Sprintf("%d", idx)
	return store.Key{Kind: KindShard, Format: ShardFormat, Inputs: in}
}

// itemKey keys an item's summary — the memoisation unit: a hit means
// the item's simulation (and all its shards) already exist.
func itemKey(bc BuildConfig, b workload.Benchmark, cfg cachesim.Config) store.Key {
	return store.Key{Kind: KindItem, Format: ItemFormat, Inputs: itemInputs(bc, b, cfg)}
}

// datasetKey keys a whole manifest. The item population is folded into
// one hash input so the key stays bounded for large sweeps.
func datasetKey(bc BuildConfig, benches []workload.Benchmark, cfgs []cachesim.Config) store.Key {
	h := sha256.New()
	for _, cfg := range cfgs {
		for _, b := range benches {
			//lint:ignore unchecked-error hash.Hash writes never fail
			fmt.Fprintf(h, "%s|%s|%s|%d|%d|%s\n", b.Name, b.Group, b.Suite, b.Ops, b.Seed, cfg.CacheKey())
		}
	}
	return store.Key{Kind: KindDataset, Format: ManifestFormat, Inputs: map[string]string{
		"name":          bc.Name,
		"heatmap":       fmt.Sprintf("%+v", bc.Heatmap),
		"max_windows":   fmt.Sprintf("%d", bc.MaxWindows),
		"shard_windows": fmt.Sprintf("%d", bc.ShardWindows),
		"min_hit_rate":  fmt.Sprintf("%g", bc.MinHitRate),
		"mode":          bc.mode(),
		"items":         hex.EncodeToString(h.Sum(nil)),
	}}
}

// Summary renders a short human-readable description of the manifest.
func (m *Manifest) Summary() string {
	var sb strings.Builder
	mode := "full"
	if m.Sampling != nil {
		mode = fmt.Sprintf("sampled %d/%d windows", m.Sampling.Representatives, m.Sampling.TotalWindows)
	}
	usable, filtered, skipped := 0, 0, 0
	for _, it := range m.Items {
		switch {
		case it.Filtered:
			filtered++
		case it.Skipped:
			skipped++
		case it.usable():
			usable++
		}
	}
	fmt.Fprintf(&sb, "dataset %q: %d samples, %d/%d items usable (%d filtered, %d skipped), %s, %dx%d heatmaps",
		m.Name, m.TotalWindows, usable, len(m.Items), filtered, skipped, mode, m.Heatmap.Height, m.Heatmap.Width)
	return sb.String()
}
