// Package stream is the streaming dataset subsystem: it synthesises,
// simulates, windows and consumes traces one access at a time, pushing
// each heatmap window to its consumer on the caller's goroutine as soon
// as it closes, so neither a trace nor a dataset is ever fully
// materialised in memory (DESIGN §12). There is no goroutine or channel
// inside a run; callers parallelise across items. Built datasets persist
// as sharded manifests in the content-addressed store; shards are
// memoised per benchmark × cache configuration and pullable by sha256
// digest.
//
// Truth (truth.go) is the ground-truth source of the public Pipeline
// and the experiment harness; everything it returns comes from Run.
//
// The package guarantees byte-identity with the reference BuildPair
// pipeline: the windows Run emits are exactly the pairs
// heatmap.BuildPair would produce from the materialised trace, in the
// same order, and the simulator statistics match cachesim.RunTrace —
// both properties are proven by tests here and in internal/heatmap.
package stream

import (
	"context"
	"errors"
	"strconv"

	"cachebox/internal/cachesim"
	"cachebox/internal/heatmap"
	"cachebox/internal/metrics"
	"cachebox/internal/obs"
	"cachebox/internal/trace"
	"cachebox/internal/workload"
)

// RunConfig controls one streaming benchmark × cache run.
type RunConfig struct {
	// Heatmap is the window geometry.
	Heatmap heatmap.Config
	// MaxWindows caps the number of windows emitted; 0 means all.
	MaxWindows int
	// StopEarly stops simulating once MaxWindows windows have been
	// emitted instead of finishing the trace. The run then reports
	// HitRate -1 and Complete false, because the remaining accesses
	// were never simulated. Leave unset to keep simulating past the
	// cap so the exact whole-trace hit rate is still produced.
	StopEarly bool
}

// Window is one emitted access/miss heatmap pair.
type Window struct {
	// Index is the window's position in the benchmark's split
	// sequence (equals Pair.Access.Index).
	Index int
	// Pair holds the aligned access and miss images.
	Pair heatmap.Pair
}

// RunResult summarises a streaming run.
type RunResult struct {
	// HitRate is the whole-trace cache hit rate, or -1 when StopEarly
	// cut the simulation short.
	HitRate float64
	// Windows is the number of windows emitted to the consumer.
	Windows int
	// Complete reports whether the full trace was simulated.
	Complete bool
}

// errStop ends the access stream once StopEarly's window budget is spent.
var errStop = errors.New("stream: window budget reached")

// Run synthesises bench's access stream, drives a fresh cache over it,
// windows the access and miss streams into heatmap pairs, and calls fn
// for every emitted window — all without materialising the trace. It is
// a push pipeline on the caller's goroutine: the benchmark's emitter
// hands each access to the simulator, the simulated access to the
// windower, and every window the access closes to fn before the next
// access is synthesised, so memory stays O(window) and a slow fn
// throttles synthesis directly. Parallelism belongs to the caller
// (par.Map across items).
//
// ctx is checked before every emitted window; a cancelled ctx or a
// non-nil fn error stops the run at once, is returned, and fn is not
// called again. The emitted windows are
// byte-identical to the materialised
// workload.Trace → cachesim.RunTrace → heatmap.BuildPair pipeline.
func Run(ctx context.Context, bench workload.Benchmark, cacheCfg cachesim.Config, rc RunConfig, fn func(Window) error) (res RunResult, _ error) {
	if err := rc.Heatmap.Validate(); err != nil {
		return RunResult{}, err
	}
	if err := cacheCfg.Validate(); err != nil {
		return RunResult{}, err
	}
	_, span := obs.Start(ctx, "stream.run")
	span.Tag("bench", bench.Name)
	metrics.SimRuns.Inc()

	run := cachesim.NewStreamRun(cachesim.New(cacheCfg))
	// Tagged once per run, so accesses/s per item reads off the trace.
	defer func() {
		span.TagInt("accesses", int(run.Stats().Accesses))
		span.TagInt("windows", res.Windows)
		span.Tag("complete", strconv.FormatBool(res.Complete))
		span.End()
	}()
	ps, err := heatmap.NewPairStream(rc.Heatmap, bench.Name)
	if err != nil {
		return RunResult{}, err
	}

	emitted := 0
	emit := func(p heatmap.Pair) error {
		if rc.MaxWindows > 0 && emitted >= rc.MaxWindows {
			if rc.StopEarly {
				return errStop
			}
			return nil // keep simulating for the exact hit rate
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		emitted++
		metrics.StreamWindows.Inc()
		return fn(Window{Index: p.Access.Index, Pair: p})
	}

	sinkErr := bench.StreamTrace(func(a trace.Access) error {
		if err := ps.Add(a, !run.Access(a)); err != nil {
			return err
		}
		for _, p := range ps.Drain() {
			if err := emit(p); err != nil {
				return err
			}
		}
		return nil
	})
	if sinkErr != nil {
		if errors.Is(sinkErr, errStop) {
			return RunResult{HitRate: -1, Windows: emitted, Complete: false}, nil
		}
		return RunResult{HitRate: -1, Windows: emitted}, sinkErr
	}

	pairs, err := ps.Finish()
	if err != nil {
		return RunResult{HitRate: -1, Windows: emitted}, err
	}
	for _, p := range pairs {
		if err := emit(p); err != nil {
			if errors.Is(err, errStop) {
				break // trace fully simulated; only emission was capped
			}
			return RunResult{HitRate: -1, Windows: emitted}, err
		}
	}
	return RunResult{HitRate: run.Stats().HitRate(), Windows: emitted, Complete: true}, nil
}
