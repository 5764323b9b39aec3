// Command cbx-serve runs the CacheBox batched-inference HTTP service:
// a model registry of trained CB-GAN files plus a dynamic micro-batcher
// that coalesces concurrent predictions into batched generator forward
// passes.
//
// Serve a directory of models (hot-reloadable via POST /admin/reload):
//
//	cbx-serve -models ./models -addr :8080
//
// Serve a single model file (static registry, name "default"):
//
//	cbx-serve -model model.cbgan
//
// Serve models straight out of a content-addressed artifact store (the
// newest entry per model name wins; reload re-scans the store):
//
//	cbx-serve -store artifacts/store
//
// Endpoints: POST /v1/predict, GET /v1/models, POST /admin/reload,
// GET /healthz, GET /metrics (Prometheus text format).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cachebox/internal/core"
	"cachebox/internal/httpx"
	"cachebox/internal/obs"
	"cachebox/internal/serve"
)

func main() {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run serves until ctx ends and returns the exit code: 0 after a clean
// drain, 1 if the registry or listener fails, 2 on a usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cbx-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	modelsDir := fs.String("models", "", "directory of *"+serve.ModelExt+" model files (hot-reloadable)")
	modelFile := fs.String("model", "", "single model file (static registry, served as \"default\")")
	storeDir := fs.String("store", "", "artifact store to serve models from (kind \"model\" entries)")
	maxBatch := fs.Int("max-batch", 16, "max coalesced requests per forward pass")
	maxWait := fs.Duration("max-wait", 2*time.Millisecond, "max wait for a batch to fill before flushing")
	queueDepth := fs.Int("queue", 256, "bounded queue depth (full queue returns 429)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request queue+inference timeout")
	workers := fs.Int("workers", 1, "batch-collection workers")
	drainWait := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
	quantize := fs.Bool("quantize", false, "serve int8 symmetric-quantized inference (calibrated from the loaded float32 weights; applies to hot-reloaded models too)")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof handlers under /debug/pprof/ (opt-in)")
	traceDir := fs.String("trace-dir", "", "write a Chrome trace-event file of the serving spans to this directory at shutdown")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logger := log.New(stderr, "cbx-serve: ", log.LstdFlags|log.Lmsgprefix)
	sources := 0
	for _, v := range []string{*modelsDir, *modelFile, *storeDir} {
		if v != "" {
			sources++
		}
	}
	if sources != 1 {
		logger.Print("need exactly one of -models <dir>, -model <file> or -store <dir>")
		return 2
	}

	// A collector is always installed so per-span latency histograms
	// surface in GET /metrics; trace-event buffering is only paid for
	// when -trace-dir asks for a trace file.
	collector := obs.NewCollector(obs.Options{Trace: *traceDir != ""})
	obs.Install(collector)
	defer obs.Install(nil)

	reg, err := buildRegistry(*modelsDir, *modelFile, *storeDir)
	if err != nil {
		logger.Print(err)
		return 1
	}
	if *quantize {
		reg.Quantize()
		logger.Print("int8 quantized inference enabled")
	}
	s := serve.New(reg, serve.Config{
		MaxBatch:       *maxBatch,
		MaxWait:        *maxWait,
		QueueDepth:     *queueDepth,
		RequestTimeout: *timeout,
		Workers:        *workers,
	})
	// The listener stops first so handlers finish receiving results,
	// then Close drains the batcher so every accepted request is
	// answered.
	err = httpx.Run(ctx, httpx.Service{
		Name: "cbx-serve", Addr: *addr, Handler: s, Pprof: *pprofOn,
		Detail: fmt.Sprintf("%d model(s) loaded", reg.Len()),
		Drain:  s.Close, DrainTimeout: *drainWait,
		TraceDir: *traceDir, Collector: collector, Log: logger,
	})
	if err != nil {
		logger.Print(err)
		return 1
	}
	return 0
}

// buildRegistry loads the one model source run accepted.
func buildRegistry(dir, file, storeDir string) (*serve.Registry, error) {
	switch {
	case dir != "":
		return serve.NewRegistry(dir)
	case storeDir != "":
		return serve.NewRegistryFromStore(storeDir)
	default:
		m, err := core.LoadFile(file)
		if err != nil {
			return nil, err
		}
		return serve.NewStaticRegistry("default", m), nil
	}
}
