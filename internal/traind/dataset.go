package traind

import (
	"fmt"

	"cachebox/internal/core"
	"cachebox/internal/store"
	"cachebox/internal/stream"
)

// OpenDatasetSource resolves a TrainConfig stream-dataset section to a
// lazily loading sample source: open the named store, resolve the
// manifest digest (full or unique prefix), and validate the dataset
// against it. This is the one shared resolution path for every trainer
// that accepts a `train.json` naming a streamed dataset — the cachebox
// CLI and the traind service both go through it.
func OpenDatasetSource(src core.DatasetSource) (core.SampleSource, *stream.Manifest, error) {
	if src.Kind != core.DatasetStream {
		return nil, nil, fmt.Errorf("traind: dataset kind %q is not %q", src.Kind, core.DatasetStream)
	}
	st, err := store.Open(src.Store)
	if err != nil {
		return nil, nil, err
	}
	return openDatasetIn(st, src.Dataset)
}

// openDatasetIn resolves a dataset reference inside an already-open
// store (the service path, which owns a long-lived store handle). A
// reference is a manifest digest prefix, or — matching how `cachebox dataset`
// names what it builds — a dataset name, resolved to the newest
// dataset manifest carrying it.
func openDatasetIn(st *store.Store, ref string) (core.SampleSource, *stream.Manifest, error) {
	digest, err := st.ResolvePrefix(ref)
	if err != nil {
		var nameErr error
		if digest, nameErr = resolveDatasetName(st, ref); nameErr != nil {
			return nil, nil, fmt.Errorf("traind: resolve dataset %q: %w", ref, err)
		}
	}
	man, _, err := stream.LoadManifest(st, digest)
	if err != nil {
		return nil, nil, err
	}
	ds, err := stream.OpenDataset(st, man)
	if err != nil {
		return nil, nil, err
	}
	return ds, man, nil
}

// resolveDatasetName finds the newest dataset manifest whose recorded
// build name equals ref. Names are not unique — every rebuild of a
// tweaked recipe publishes a fresh manifest under the same name — so
// newest-wins mirrors the serve registry's newest-per-name rule.
func resolveDatasetName(st *store.Store, ref string) (string, error) {
	entries, err := st.Entries()
	if err != nil {
		return "", err
	}
	best := -1
	for i, e := range entries {
		if e.Kind != stream.KindDataset || e.Inputs["name"] != ref {
			continue
		}
		if best < 0 || e.CreatedAt.After(entries[best].CreatedAt) {
			best = i
		}
	}
	if best < 0 {
		return "", fmt.Errorf("no dataset named %q", ref)
	}
	return entries[best].Digest, nil
}
