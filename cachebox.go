// Package cachebox is the public API of CacheBox-Go, a from-scratch
// reproduction of "Learning Architectural Cache Simulator Behaviour"
// (IISWC 2025): memory-access traces are rendered as 2D heatmaps, a
// cache is treated as a filter mapping access heatmaps to miss
// heatmaps, and a conditional GAN (CB-GAN) learns that filter, enabling
// batched, parallel cache-behaviour prediction.
//
// The package re-exports the building blocks (synthetic workload
// suites, the trace-driven cache simulator, the heatmap pipeline and
// the CB-GAN model) and provides a Pipeline type that wires them into
// the paper's end-to-end workflow: benchmark → simulate → heatmap pairs
// → train → predict → hit-rate evaluation.
package cachebox

import (
	"cachebox/internal/baseline"
	"cachebox/internal/cachesim"
	"cachebox/internal/core"
	"cachebox/internal/heatmap"
	"cachebox/internal/metrics"
	"cachebox/internal/par"
	"cachebox/internal/sampling"
	"cachebox/internal/serve"
	"cachebox/internal/simpoint"
	"cachebox/internal/store"
	"cachebox/internal/stream"
	"cachebox/internal/trace"
	"cachebox/internal/workload"
)

// Re-exported fundamental types. The aliases make the internal
// packages' documented types usable by downstream code without
// breaking the module's internal layout.
type (
	// Access is one memory operation of a trace.
	Access = trace.Access
	// Trace is an in-memory access trace.
	Trace = trace.Trace
	// Benchmark is a synthetic program emitting a deterministic trace.
	Benchmark = workload.Benchmark
	// Suite is a named set of benchmarks.
	Suite = workload.Suite
	// CacheConfig describes one cache level (sets, ways, block size,
	// policy).
	CacheConfig = cachesim.Config
	// Cache is a single set-associative simulated cache.
	Cache = cachesim.Cache
	// Hierarchy is a multi-level simulated cache hierarchy.
	Hierarchy = cachesim.Hierarchy
	// LevelTrace pairs the access stream entering a cache level with
	// its miss sub-stream.
	LevelTrace = cachesim.LevelTrace
	// HeatmapConfig controls heatmap geometry (height, width, window,
	// overlap).
	HeatmapConfig = heatmap.Config
	// Heatmap is one H×W image of access counts.
	Heatmap = heatmap.Heatmap
	// HeatmapPair is an aligned access/miss heatmap pair.
	HeatmapPair = heatmap.Pair
	// ModelConfig configures a CB-GAN instance.
	ModelConfig = core.Config
	// ConditionVec is the named cache geometry the CB-GAN conditions on
	// (paper §3.2.3); the preferred spelling of conditioning inputs for
	// Model.PredictConditioned and the /v1/predict request body.
	ConditionVec = core.ConditionVec
	// Model is a CB-GAN (generator + discriminator + codec).
	Model = core.Model
	// Sample is one CB-GAN training example.
	Sample = core.Sample
	// TrainConfig is the versioned training configuration shared by
	// every trainer (the train CLI, the experiment harness and the
	// cbx-traind service): epochs/batching/seed plus explicit
	// dataset-source, checkpoint and parallelism sections, serialisable
	// as the `train.json` file the CLIs accept via -config.
	TrainConfig = core.TrainConfig
	// TrainDatasetSource is TrainConfig's dataset-source section.
	TrainDatasetSource = core.DatasetSource
	// TrainCheckpointPolicy is TrainConfig's checkpoint section.
	TrainCheckpointPolicy = core.CheckpointPolicy
	// TrainParallelism is TrainConfig's data-parallel sharding section.
	TrainParallelism = core.Parallelism
)

// Dataset-source kinds accepted by TrainDatasetSource.Kind.
const (
	// TrainDatasetInline: samples are supplied in-process by the caller.
	TrainDatasetInline = core.DatasetInline
	// TrainDatasetStream: samples stream from a sharded store dataset.
	TrainDatasetStream = core.DatasetStream
)

type (
	// TrainStats reports per-epoch training losses.
	TrainStats = core.TrainStats
	// Predictor is a non-GAN miss-rate predictor (HRD, STM, tabular).
	Predictor = baseline.Predictor
	// Phases is a SimPoint-style phase analysis result.
	Phases = simpoint.Phases
	// PhaseConfig controls phase analysis.
	PhaseConfig = simpoint.Config
	// InferenceServer is the batched CB-GAN inference HTTP service
	// (model registry + dynamic micro-batcher + backpressure).
	InferenceServer = serve.Server
	// ServeConfig tunes the inference service (batch size, wait
	// deadline, queue depth, timeouts).
	ServeConfig = serve.Config
	// ModelRegistry is a thread-safe name → model table, optionally
	// backed by a hot-reloadable directory of model files.
	ModelRegistry = serve.Registry
	// PredictRequest is the /v1/predict JSON request body.
	PredictRequest = serve.PredictRequest
	// PredictResponse is the /v1/predict JSON response body.
	PredictResponse = serve.PredictResponse
	// HeatmapJSON is the wire form of a heatmap.
	HeatmapJSON = serve.HeatmapJSON
	// ModelInfo describes one model loaded in a registry.
	ModelInfo = serve.ModelInfo
	// ReloadSummary reports what a registry hot reload changed.
	ReloadSummary = serve.ReloadSummary
	// ModelHeaderError describes a rejected model file header.
	ModelHeaderError = core.HeaderError
	// Store is a content-addressed artifact store memoising simulation
	// results, datasets and trained models.
	Store = store.Store
	// StoreKey addresses one artifact by its producing inputs.
	StoreKey = store.Key
	// StoreManifest describes one stored artifact.
	StoreManifest = store.Manifest
	// Checkpoint is a resumable training checkpoint (weights +
	// optimiser state + RNG cursors + epoch counter).
	Checkpoint = core.Checkpoint
	// SampleSource supplies training samples by index; it abstracts
	// over in-memory slices and sharded streaming datasets, so
	// Model.TrainSource never needs the dataset materialised.
	SampleSource = core.SampleSource
	// SliceSampleSource adapts an in-memory sample slice to
	// SampleSource.
	SliceSampleSource = core.SliceSource
	// DatasetManifest describes one built streaming dataset: its
	// window geometry, sampling mode and per-item shard references.
	DatasetManifest = stream.Manifest
	// DatasetItem is one benchmark × cache entry of a streaming
	// dataset manifest.
	DatasetItem = stream.Item
	// StreamDataset serves a built streaming dataset's samples by
	// index, pulling (and memoising) shards from the store on demand.
	StreamDataset = stream.Dataset
	// StreamRunConfig controls one streaming benchmark × cache run.
	StreamRunConfig = stream.RunConfig
	// StreamWindow is one access/miss heatmap pair emitted by a
	// streaming run.
	StreamWindow = stream.Window
	// StreamRunResult summarises a streaming run (hit rate, windows,
	// completeness).
	StreamRunResult = stream.RunResult
	// SamplingConfig tunes representative-interval sampling (cluster
	// count, signature dimension, k-means budget, seed).
	SamplingConfig = sampling.Config
	// SamplingPlan maps each benchmark to its representative windows
	// and their training weights.
	SamplingPlan = sampling.Plan
)

// Workload suite constructors.
var (
	// SpecLike builds the SPEC-CPU-style suite of phased programs.
	SpecLike = workload.SpecLike
	// LigraLike builds the graph-analytics suite.
	LigraLike = workload.LigraLike
	// PolyLike builds the dense linear-algebra/stencil suite.
	PolyLike = workload.PolyLike
	// ServerLike builds a server-workload suite (trees, hash tables,
	// bulk copies) beyond the paper's three families.
	ServerLike = workload.ServerLike
	// ZipfLike builds the skewed-popularity suite (Zipf-distributed
	// object accesses, scan/scatter phases) beyond the paper's three
	// families.
	ZipfLike = workload.ZipfLike
	// SplitBenchmarks divides benchmarks 80/20 (or any fraction) into
	// train and test sets, keeping all phases of a program together.
	SplitBenchmarks = workload.Split
)

// Model and heatmap constructors.
var (
	// NewModel builds a fresh CB-GAN.
	NewModel = core.NewModel
	// LoadModel reads a serialised CB-GAN.
	LoadModel = core.Load
	// LoadModelFile reads a serialised CB-GAN from a path.
	LoadModelFile = core.LoadFile
	// DefaultModelConfig is the scaled-down CB-GAN configuration.
	DefaultModelConfig = core.DefaultConfig
	// PaperModelConfig is the paper's full-scale configuration.
	PaperModelConfig = core.PaperConfig
	// DefaultHeatmapConfig is the scaled-down heatmap geometry.
	DefaultHeatmapConfig = heatmap.DefaultConfig
	// PaperHeatmapConfig is the paper's 512×512 geometry.
	PaperHeatmapConfig = heatmap.PaperConfig
	// CacheParams converts a cache config into CB-GAN conditioning
	// inputs.
	CacheParams = core.CacheParams
	// NewCache constructs a simulated cache.
	NewCache = cachesim.New
	// NewHierarchy constructs a simulated (non-inclusive) hierarchy.
	NewHierarchy = cachesim.NewHierarchy
	// NewHierarchyWithInclusion constructs a hierarchy with an
	// explicit content policy (inclusive / exclusive / non-inclusive).
	NewHierarchyWithInclusion = cachesim.NewHierarchyWithInclusion
	// RunTrace drives a cache over a trace, returning access and miss
	// streams.
	RunTrace = cachesim.RunTrace
	// RunHierarchy drives a hierarchy over a trace.
	RunHierarchy = cachesim.RunHierarchy
	// BuildHeatmaps converts a trace into overlapping heatmaps.
	BuildHeatmaps = heatmap.Build
	// BuildHeatmapPairs converts access/miss streams into aligned
	// heatmap pairs.
	BuildHeatmapPairs = heatmap.BuildPair
	// HeatmapHitRate computes the hit rate implied by access and miss
	// heatmap sequences.
	HeatmapHitRate = heatmap.HitRate
	// WriteHeatmapPNG renders a heatmap to a PNG file.
	WriteHeatmapPNG = heatmap.WritePNG
	// WriteDiffPNG renders a prediction-vs-truth difference image.
	WriteDiffPNG = heatmap.WriteDiffPNG
	// AbsPctDiff is the paper's accuracy metric (percentage points).
	AbsPctDiff = metrics.AbsPctDiff
	// SSIM is the structural-similarity metric of RQ7.
	SSIM = metrics.SSIM
	// MSE is the mean-squared-error metric of RQ7.
	MSE = metrics.MSE
	// AnalyzePhases runs SimPoint-style phase analysis on a trace.
	AnalyzePhases = simpoint.Analyze
	// DefaultPhaseConfig returns phase-analysis defaults.
	DefaultPhaseConfig = simpoint.DefaultConfig
)

// Serving constructors and errors.
var (
	// NewInferenceServer wires the batched inference service around a
	// model registry.
	NewInferenceServer = serve.New
	// NewModelRegistry scans a directory of model files (strict: every
	// file must load).
	NewModelRegistry = serve.NewRegistry
	// NewStaticModelRegistry wraps one in-memory model.
	NewStaticModelRegistry = serve.NewStaticRegistry
	// ReadModelHeader validates a serialised model's architecture
	// header without restoring its weights.
	ReadModelHeader = core.ReadHeader
	// ReadModelFileHeader is ReadModelHeader for a file path.
	ReadModelFileHeader = core.ReadFileHeader
	// ErrBadModelHeader matches (errors.Is) any model-header rejection.
	ErrBadModelHeader = core.ErrBadHeader
	// ErrModelQueueFull is the backpressure rejection of the inference
	// service (HTTP 429).
	ErrModelQueueFull = serve.ErrQueueFull
	// ErrUnknownModel is the inference service's unknown-model error
	// (HTTP 404).
	ErrUnknownModel = serve.ErrUnknownModel
)

// Artifact store and checkpoint constructors.
var (
	// OpenStore creates or opens a content-addressed artifact store.
	OpenStore = store.Open
	// ErrStoreMiss matches (errors.Is) a lookup with no stored entry.
	ErrStoreMiss = store.ErrMiss
	// LoadCheckpointFile reads a resumable training checkpoint.
	LoadCheckpointFile = core.LoadCheckpointFile
	// DefaultTrainConfig returns the current-version TrainConfig with
	// the train loop's defaults made explicit.
	DefaultTrainConfig = core.DefaultTrainConfig
	// ParseTrainConfig decodes and validates a serialised TrainConfig
	// (strict: unknown fields are an error).
	ParseTrainConfig = core.ParseTrainConfig
	// LoadTrainConfigFile reads and validates a train.json file.
	LoadTrainConfigFile = core.LoadTrainConfigFile
	// ErrBadCheckpoint matches (errors.Is) a checkpoint that cannot
	// resume the current run.
	ErrBadCheckpoint = core.ErrBadCheckpoint
	// RuntimeSummary renders the process's store/simulator counters as
	// one log line.
	RuntimeSummary = metrics.RuntimeSummary
	// NewModelRegistryFromStore serves models straight out of an
	// artifact store.
	NewModelRegistryFromStore = serve.NewRegistryFromStore
)

// Streaming dataset and sampling constructors. The streaming subsystem
// (internal/stream) synthesises, simulates and windows traces one
// heatmap window at a time through a bounded channel pipeline — byte-
// identical to the reference BuildPair pipeline — and persists datasets as
// sharded content-addressed manifests; internal/sampling picks cluster-
// representative windows so only a fraction need simulated ground
// truth.
var (
	// StreamRun drives one benchmark × cache configuration through the
	// streaming pipeline, calling a sink for every emitted window.
	StreamRun = stream.Run
	// BuildStreamDataset builds (or recalls) a sharded streaming
	// dataset in a store and returns its manifest.
	BuildStreamDataset = stream.Build
	// OpenStreamDataset serves a built dataset's samples by index.
	OpenStreamDataset = stream.OpenDataset
	// LoadDatasetManifest fetches a dataset manifest by store digest.
	LoadDatasetManifest = stream.LoadManifest
	// BuildSamplingPlan clusters per-window access signatures (no
	// simulation) and selects weighted representative windows.
	BuildSamplingPlan = sampling.BuildPlan
	// DefaultSamplingConfig returns the sampling defaults (k=8,
	// 64-dim signatures).
	DefaultSamplingConfig = sampling.DefaultConfig
)

// Parallel execution helpers. Pipeline.Workers (and the harness's -j
// flag) bound simulation fan-out; results always commit in
// deterministic input order.
var (
	// DefaultWorkers is the worker-pool width used when none is set:
	// runtime.GOMAXPROCS at call time.
	DefaultWorkers = par.DefaultWorkers
	// GenerateTraces synthesises many benchmarks' traces concurrently,
	// returning them in benchmark order.
	GenerateTraces = workload.Traces
)
