package store

// Typed artifact helpers for the heatmap-pair datasets the harness
// memoises: the (access, miss) heatmap pairs produced by running the
// ground-truth simulator over one benchmark under one cache config.
// The key captures every input that can change the pair bytes —
// benchmark identity and generator parameters, the full cachesim and
// heatmap configs, the harness pair cap, and the dataset split seed —
// so a change to any of them misses cleanly instead of serving stale
// data.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"cachebox/internal/cachesim"
	"cachebox/internal/heatmap"
	"cachebox/internal/workload"
)

// PairsFormat versions the gob encoding of PairsArtifact. Bump on any
// change to the payload layout.
const PairsFormat = 1

// PairsArtifact is the stored form of one benchmark×config simulation
// result: the heatmap pairs plus the simulator's measured hit rate.
type PairsArtifact struct {
	Pairs   []heatmap.Pair
	HitRate float64
}

// PairsKey derives the store key for a benchmark×config simulation.
// splitSeed keys the dataset split the pairs feed into, so runs with
// different train/test splits never share an entry.
func PairsKey(b workload.Benchmark, cfg cachesim.Config, hm heatmap.Config, maxPairs int, splitSeed int64) Key {
	return Key{
		Kind:   "pairs",
		Format: PairsFormat,
		Inputs: map[string]string{
			"bench":      b.Name,
			"group":      b.Group,
			"suite":      b.Suite,
			"bench_ops":  fmt.Sprintf("%d", b.Ops),
			"bench_seed": fmt.Sprintf("%d", b.Seed),
			"cache":      cfg.CacheKey(),
			"heatmap":    fmt.Sprintf("%+v", hm),
			"max_pairs":  fmt.Sprintf("%d", maxPairs),
			"split_seed": fmt.Sprintf("%d", splitSeed),
		},
	}
}

// SavePairs stores the artifact under k.
func (s *Store) SavePairs(k Key, art *PairsArtifact) error {
	_, err := s.Put(k, func(w io.Writer) error {
		if err := gob.NewEncoder(w).Encode(art); err != nil {
			return fmt.Errorf("store: encode pairs: %w", err)
		}
		return nil
	})
	return err
}

// LoadPairs fetches and decodes the artifact stored under k. The
// payload is read fully before decoding so the integrity hash is
// always verified, even though gob may not consume trailing bytes.
func (s *Store) LoadPairs(k Key) (*PairsArtifact, error) {
	data, _, err := s.GetBytes(k)
	if err != nil {
		return nil, err
	}
	var art PairsArtifact
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&art); err != nil {
		return nil, fmt.Errorf("store: decode pairs: %w", err)
	}
	return &art, nil
}
