package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// TrainConfigVersion is the current schema version of TrainConfig.
// Adding fields with backwards-compatible zero values does not bump
// the version; changing the meaning of an existing field does.
const TrainConfigVersion = 1

// Dataset source kinds accepted by DatasetSource.Kind.
const (
	// DatasetInline means the samples are supplied in-process by the
	// caller (Train's sample slice or a custom SampleSource).
	DatasetInline = "inline"
	// DatasetStream names a sharded streaming dataset manifest inside a
	// content-addressed store (internal/stream). The training core never
	// opens stores itself; callers resolve the reference to a
	// SampleSource and pass it to TrainSource.
	DatasetStream = "stream"
)

// TrainConfig is the versioned training configuration shared by every
// trainer in the repository: the `cachebox train` CLI, the experiment
// harness, and the cbx-traind training service all describe a run with
// this one JSON-serialisable object instead of ad-hoc option structs
// and scattered flags.
//
// The serialised schema is a contract: a `train.json` accepted today
// keeps working, and cbx-traind job specs embed it verbatim. Runtime
// wiring that cannot meaningfully cross a process boundary (the log
// writer, an already-loaded checkpoint, a cancellation context) lives
// in explicitly `json:"-"` fields.
type TrainConfig struct {
	// Version is the schema version (TrainConfigVersion). Zero means
	// "current" so zero-value configs built in code keep working;
	// anything else that is not the current version is rejected.
	Version int `json:"version"`
	// Epochs is the number of passes over the sample set (0 → 1).
	Epochs int `json:"epochs"`
	// BatchSize is the minibatch size (0 → 4; paper: random batching).
	BatchSize int `json:"batch_size"`
	// Seed drives shuffling and the data-parallel dropout streams.
	Seed int64 `json:"seed"`
	// Dataset says where the training samples come from.
	Dataset DatasetSource `json:"dataset"`
	// Checkpoint controls periodic resumable checkpoints.
	Checkpoint CheckpointPolicy `json:"checkpoint"`
	// Parallel controls data-parallel gradient sharding.
	Parallel Parallelism `json:"parallel"`

	// Log, when non-nil, receives one progress line per epoch.
	Log io.Writer `json:"-"`
	// OnEpoch, when non-nil, is called after every completed epoch with
	// its stats — the programmatic progress hook cbx-traind's job status
	// is built on. It runs on the training goroutine; keep it cheap.
	OnEpoch func(EpochStats) `json:"-"`
	// ResumeFrom, when non-nil, restores an already-loaded checkpoint
	// and continues from its epoch; it takes precedence over
	// Checkpoint.Resume. The resumed run is bit-identical to an
	// uninterrupted one.
	ResumeFrom *Checkpoint `json:"-"`
	// Context, when non-nil, cancels training between batches; the run
	// returns the context's error. Nil means run to completion.
	Context context.Context `json:"-"`
}

// DatasetSource declares where training samples come from. The train
// loop itself only ever sees a SampleSource; this section exists so a
// serialised TrainConfig is a complete, self-describing recipe that
// cbx-traind and the CLIs can resolve without side channels.
type DatasetSource struct {
	// Kind is DatasetInline (default) or DatasetStream.
	Kind string `json:"kind,omitempty"`
	// Store is the artifact-store directory holding the dataset
	// (DatasetStream only).
	Store string `json:"store,omitempty"`
	// Dataset is the dataset manifest's store digest, or a unique
	// digest prefix (DatasetStream only).
	Dataset string `json:"dataset,omitempty"`
}

// CheckpointPolicy controls resumable training checkpoints.
type CheckpointPolicy struct {
	// Every writes a checkpoint after every N epochs (and after the
	// final one) when positive. Requires Path.
	Every int `json:"every,omitempty"`
	// Path is where checkpoints are written (atomically; a crash
	// mid-write preserves the previous one).
	Path string `json:"path,omitempty"`
	// Resume, when set, resumes from this checkpoint file if it exists;
	// a missing file starts fresh (so restarting a crashed run needs no
	// conditional logic). An unreadable or mismatched file is an error.
	Resume string `json:"resume,omitempty"`
}

// Parallelism controls deterministic data-parallel training. Each
// batch is split into Shards contiguous gradient shards whose
// gradients are reduced in strict shard-index order, so the result
// depends only on Shards — never on Workers or goroutine scheduling.
type Parallelism struct {
	// Shards is the fixed number of gradient shards per batch; 0 means
	// 1, where the one replica is the model itself and the step runs
	// inline on the calling goroutine. Shards is part of the training
	// recipe (it changes the dropout-stream layout and float reduction
	// order), so checkpoints record and validate it.
	Shards int `json:"shards,omitempty"`
	// Workers caps the goroutines running shards concurrently. 0 means
	// one per shard; 1 runs shards serially — byte-identical
	// to any other worker count, which the golden j1-vs-j8 test pins.
	Workers int `json:"workers,omitempty"`
}

// DefaultTrainConfig returns the current-version config with the train
// loop's defaults made explicit.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Version:   TrainConfigVersion,
		Epochs:    1,
		BatchSize: 4,
		Seed:      1,
		Dataset:   DatasetSource{Kind: DatasetInline},
	}
}

// normalized fills defaulted fields so the train loop and checkpoint
// validation see one canonical form.
func (c TrainConfig) normalized() TrainConfig {
	if c.Version == 0 {
		c.Version = TrainConfigVersion
	}
	if c.Epochs <= 0 {
		c.Epochs = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 4
	}
	if c.Dataset.Kind == "" {
		c.Dataset.Kind = DatasetInline
	}
	if c.Parallel.Shards <= 0 {
		c.Parallel.Shards = 1
	}
	return c
}

// Validate reports whether the configuration is usable. It accepts the
// normalised zero values (Train fills defaults), rejecting only
// contradictory or unknown settings.
func (c TrainConfig) Validate() error {
	if c.Version != 0 && c.Version != TrainConfigVersion {
		return fmt.Errorf("core: unsupported train config version %d (current %d)", c.Version, TrainConfigVersion)
	}
	if c.Epochs < 0 {
		return fmt.Errorf("core: negative epochs %d", c.Epochs)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("core: negative batch size %d", c.BatchSize)
	}
	switch c.Dataset.Kind {
	case "", DatasetInline:
		if c.Dataset.Store != "" || c.Dataset.Dataset != "" {
			return fmt.Errorf("core: inline dataset must not name a store or dataset digest")
		}
	case DatasetStream:
		if c.Dataset.Store == "" || c.Dataset.Dataset == "" {
			return fmt.Errorf("core: stream dataset needs both store and dataset, got store=%q dataset=%q",
				c.Dataset.Store, c.Dataset.Dataset)
		}
	default:
		return fmt.Errorf("core: unknown dataset kind %q (want %q or %q)", c.Dataset.Kind, DatasetInline, DatasetStream)
	}
	if c.Checkpoint.Every < 0 {
		return fmt.Errorf("core: negative checkpoint interval %d", c.Checkpoint.Every)
	}
	if c.Checkpoint.Every > 0 && c.Checkpoint.Path == "" {
		return fmt.Errorf("core: checkpoint.every=%d but no checkpoint.path", c.Checkpoint.Every)
	}
	if c.Parallel.Shards < 0 {
		return fmt.Errorf("core: negative shard count %d", c.Parallel.Shards)
	}
	if c.Parallel.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", c.Parallel.Workers)
	}
	return nil
}

// ParseTrainConfig decodes a serialised TrainConfig. Decoding is
// strict — unknown fields are an error, so a typoed key fails loudly
// instead of silently training with defaults — and the result is
// validated.
func ParseTrainConfig(data []byte) (TrainConfig, error) {
	var c TrainConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return TrainConfig{}, fmt.Errorf("core: parse train config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return TrainConfig{}, err
	}
	return c, nil
}

// LoadTrainConfigFile reads and validates a TrainConfig JSON file.
func LoadTrainConfigFile(path string) (TrainConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return TrainConfig{}, fmt.Errorf("core: read train config: %w", err)
	}
	c, err := ParseTrainConfig(data)
	if err != nil {
		return TrainConfig{}, fmt.Errorf("core: %s: %w", path, err)
	}
	return c, nil
}

// JSON renders the config as indented JSON, the on-disk `train.json`
// form shared by every trainer CLI.
func (c TrainConfig) JSON() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}
