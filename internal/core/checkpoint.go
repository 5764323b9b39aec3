package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"cachebox/internal/nn"
)

// Checkpoint captures everything Train needs to continue a run
// bit-identically after a crash: the weights, both optimisers' moment
// accumulators and step counters, the dropout RNG stream positions,
// how many epochs completed, and the training inputs the run was
// launched with (for validation — resuming under different options
// would silently train a different model, so it is rejected instead).
//
// The shuffle RNG is not serialised; Train reconstructs it from the
// seed and replays one Shuffle per completed epoch, which lands the
// generator in exactly the state an uninterrupted run would have.
type Checkpoint struct {
	// Cfg is the model architecture the checkpoint belongs to.
	Cfg Config
	// NextEpoch is the first epoch the resumed run executes; epochs
	// [0, NextEpoch) are complete.
	NextEpoch int
	// Samples, Seed and BatchSize echo the producing run, validated on
	// resume: a different dataset size or shuffle seed would break the
	// bit-identical guarantee.
	Samples   int
	Seed      int64
	BatchSize int
	// Shards is the data-parallel gradient shard count of the producing
	// run (0 from pre-sharding checkpoints means 1, serial). A resumed
	// run must use the same count: sharding changes the dropout-stream
	// layout and the float reduction order, so a different count would
	// silently diverge from the uninterrupted run.
	Shards int
	// Weights is the full model state (parameters + batch-norm
	// running statistics), in allState order.
	Weights []nn.ParamBlob
	// OptG and OptD are the generator and discriminator optimisers.
	OptG, OptD nn.AdamState
	// DropoutCursors are the RNG stream positions of the generator's
	// dropout layers, in Dropouts() order. A resume accepts only the
	// positions the run determines (restoreCheckpoint).
	DropoutCursors []int64
	// Stats carries the completed epochs' statistics so the resumed
	// run's TrainStats covers the whole training, not just its tail.
	Stats TrainStats
}

// ErrBadCheckpoint marks a checkpoint that cannot resume the current
// run: wrong file type or version, a different architecture, or
// training options that do not match the producing run.
var ErrBadCheckpoint = errors.New("core: invalid training checkpoint")

const (
	checkpointMagic   = "cbckpt"
	checkpointVersion = 1
)

// Save serialises the checkpoint, framed like a .cbgan model file: a
// magic/version/config header followed by the gob body.
func (c *Checkpoint) Save(w io.Writer) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(modelHeader{Magic: checkpointMagic, Version: checkpointVersion, Cfg: c.Cfg}); err != nil {
		return fmt.Errorf("core: save checkpoint header: %w", err)
	}
	if err := enc.Encode(c); err != nil {
		return fmt.Errorf("core: save checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint written by Save. Framing failures
// unwrap to ErrBadCheckpoint.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	dec := gob.NewDecoder(r)
	var h modelHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("%w: decode header: %v", ErrBadCheckpoint, err)
	}
	if h.Magic != checkpointMagic {
		return nil, fmt.Errorf("%w: not a checkpoint (magic %q)", ErrBadCheckpoint, h.Magic)
	}
	if h.Version != checkpointVersion {
		return nil, fmt.Errorf("%w: unsupported checkpoint version %d", ErrBadCheckpoint, h.Version)
	}
	if err := h.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: architecture config: %v", ErrBadCheckpoint, err)
	}
	var c Checkpoint
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("core: load checkpoint: %w", err)
	}
	c.Cfg = h.Cfg
	return &c, nil
}

// SaveFile writes the checkpoint to path atomically (temp file in the
// same directory + rename), so a crash mid-write cannot clobber the
// previous checkpoint — the file that makes resume possible must never
// itself be half-written.
func (c *Checkpoint) SaveFile(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return fmt.Errorf("core: stage checkpoint: %w", err)
	}
	tmp := f.Name()
	discard := func() {
		//lint:ignore unchecked-error best-effort cleanup of a temp file after a failed write
		f.Close()
		//lint:ignore unchecked-error best-effort cleanup of a temp file after a failed write
		os.Remove(tmp)
	}
	if err := c.Save(f); err != nil {
		discard()
		return err
	}
	if err := f.Close(); err != nil {
		discard()
		return fmt.Errorf("core: stage checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		//lint:ignore unchecked-error best-effort cleanup of a temp file after a failed rename
		os.Remove(tmp)
		return fmt.Errorf("core: publish checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpointFile reads a checkpoint from path.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	//lint:ignore unchecked-error read-only file; a Close failure cannot lose data
	defer f.Close()
	return LoadCheckpoint(f)
}

// checkpoint captures the model's current training state. cfg must be
// normalised (the train loop's form).
func (m *Model) checkpoint(nextEpoch int, cfg TrainConfig, samples int, optG, optD *nn.Adam, stats *TrainStats) *Checkpoint {
	drops := m.G.Dropouts()
	cursors := make([]int64, len(drops))
	for i, d := range drops {
		cursors[i] = d.Cursor()
	}
	c := &Checkpoint{
		Cfg:            m.Cfg,
		NextEpoch:      nextEpoch,
		Samples:        samples,
		Seed:           cfg.Seed,
		BatchSize:      cfg.BatchSize,
		Shards:         cfg.Parallel.Shards,
		Weights:        nn.Snapshot(m.allState()),
		OptG:           optG.State(),
		OptD:           optD.State(),
		DropoutCursors: cursors,
	}
	c.Stats.Epochs = append(c.Stats.Epochs, stats.Epochs...)
	return c
}

// restoreCheckpoint validates c against the current run and installs
// its state into the model and optimisers. It returns the epoch to
// resume from.
func (m *Model) restoreCheckpoint(c *Checkpoint, cfg TrainConfig, samples int, optG, optD *nn.Adam, stats *TrainStats) (int, error) {
	if c.Cfg != m.Cfg {
		return 0, fmt.Errorf("%w: checkpoint architecture %+v does not match model %+v", ErrBadCheckpoint, c.Cfg, m.Cfg)
	}
	if c.Samples != samples {
		return 0, fmt.Errorf("%w: checkpoint trained on %d samples, run has %d", ErrBadCheckpoint, c.Samples, samples)
	}
	if c.Seed != cfg.Seed {
		return 0, fmt.Errorf("%w: checkpoint seed %d does not match run seed %d", ErrBadCheckpoint, c.Seed, cfg.Seed)
	}
	if c.BatchSize != cfg.BatchSize {
		return 0, fmt.Errorf("%w: checkpoint batch size %d does not match run batch size %d", ErrBadCheckpoint, c.BatchSize, cfg.BatchSize)
	}
	if ckptShards := max(c.Shards, 1); ckptShards != cfg.Parallel.Shards {
		return 0, fmt.Errorf("%w: checkpoint used %d gradient shards, run uses %d", ErrBadCheckpoint, ckptShards, cfg.Parallel.Shards)
	}
	if c.NextEpoch < 0 || c.NextEpoch > cfg.Epochs {
		return 0, fmt.Errorf("%w: checkpoint completed %d epochs, run asks for %d", ErrBadCheckpoint, c.NextEpoch, cfg.Epochs)
	}
	drops := m.G.Dropouts()
	if len(c.DropoutCursors) != len(drops) {
		return 0, fmt.Errorf("%w: checkpoint has %d dropout cursors, model has %d dropout layers",
			ErrBadCheckpoint, len(c.DropoutCursors), len(drops))
	}
	// A cursor is fully determined by the run: at one shard every
	// completed epoch drew once per activation of every sample, and at
	// more the main model's layers never draw. SeekTo replays the
	// stream one draw at a time, so any other value is refused before
	// it can stall the resume.
	for i, per := range m.G.dropoutDraws() {
		var want int64
		if cfg.Parallel.Shards == 1 {
			per *= int64(samples)
			if c.NextEpoch > 0 && per > math.MaxInt64/int64(c.NextEpoch) {
				return 0, fmt.Errorf("%w: %d epochs of dropout draws overflow a cursor", ErrBadCheckpoint, c.NextEpoch)
			}
			want = int64(c.NextEpoch) * per
		}
		if c.DropoutCursors[i] != want {
			return 0, fmt.Errorf("%w: dropout layer %d cursor %d, the run's is %d",
				ErrBadCheckpoint, i, c.DropoutCursors[i], want)
		}
	}
	if err := nn.Restore(c.Weights, m.allState()); err != nil {
		return 0, err
	}
	if err := optG.SetState(c.OptG); err != nil {
		return 0, err
	}
	if err := optD.SetState(c.OptD); err != nil {
		return 0, err
	}
	for i, d := range drops {
		d.SeekTo(c.DropoutCursors[i])
	}
	stats.Epochs = append(stats.Epochs[:0], c.Stats.Epochs...)
	return c.NextEpoch, nil
}
