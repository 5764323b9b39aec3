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
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"cachebox/internal/core"
	"cachebox/internal/obs"
	"cachebox/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	modelsDir := flag.String("models", "", "directory of *"+serve.ModelExt+" model files (hot-reloadable)")
	modelFile := flag.String("model", "", "single model file (static registry, served as \"default\")")
	storeDir := flag.String("store", "", "artifact store to serve models from (kind \"model\" entries)")
	maxBatch := flag.Int("max-batch", 16, "max coalesced requests per forward pass")
	maxWait := flag.Duration("max-wait", 2*time.Millisecond, "max wait for a batch to fill before flushing")
	queueDepth := flag.Int("queue", 256, "bounded queue depth (full queue returns 429)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request queue+inference timeout")
	workers := flag.Int("workers", 1, "batch-collection workers")
	drainWait := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
	quantize := flag.Bool("quantize", false, "serve int8 symmetric-quantized inference (calibrated from the loaded float32 weights; applies to hot-reloaded models too)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof handlers under /debug/pprof/ (opt-in)")
	traceDir := flag.String("trace-dir", "", "write a Chrome trace-event file of the serving spans to this directory at shutdown")
	flag.Parse()

	// A collector is always installed so per-span latency histograms
	// surface in GET /metrics; trace-event buffering is only paid for
	// when -trace-dir asks for a trace file.
	collector := obs.NewCollector(obs.Options{Trace: *traceDir != ""})
	obs.Install(collector)

	reg, err := buildRegistry(*modelsDir, *modelFile, *storeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cbx-serve:", err)
		os.Exit(1)
	}
	if *quantize {
		reg.Quantize()
		log.Printf("cbx-serve: int8 quantized inference enabled")
	}
	s := serve.New(reg, serve.Config{
		MaxBatch:       *maxBatch,
		MaxWait:        *maxWait,
		QueueDepth:     *queueDepth,
		RequestTimeout: *timeout,
		Workers:        *workers,
	})
	var handler http.Handler = s
	if *pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", s)
		handler = mux
	}
	hs := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("cbx-serve: listening on %s, %d model(s) loaded", *addr, reg.Len())

	select {
	case <-ctx.Done():
		// First stop the listener so handlers finish receiving results,
		// then drain the batcher so every accepted request is answered.
		log.Printf("cbx-serve: signal received, draining")
		sctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("cbx-serve: shutdown: %v", err)
		}
		s.Close()
		log.Printf("cbx-serve: drained")
		if *traceDir != "" {
			path := filepath.Join(*traceDir, "cbx-serve-trace.json")
			if err := os.MkdirAll(*traceDir, 0o755); err != nil {
				log.Printf("cbx-serve: trace dir: %v", err)
			} else if err := collector.WriteFile(path); err != nil {
				log.Printf("cbx-serve: write trace: %v", err)
			} else {
				log.Printf("cbx-serve: wrote %d trace events to %s", collector.EventCount(), path)
			}
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "cbx-serve:", err)
			os.Exit(1)
		}
	}
}

// buildRegistry resolves the -models / -model / -store flags.
func buildRegistry(dir, file, storeDir string) (*serve.Registry, error) {
	set := 0
	for _, v := range []string{dir, file, storeDir} {
		if v != "" {
			set++
		}
	}
	switch {
	case set > 1:
		return nil, fmt.Errorf("use exactly one of -models, -model, -store")
	case dir != "":
		return serve.NewRegistry(dir)
	case storeDir != "":
		return serve.NewRegistryFromStore(storeDir)
	case file != "":
		m, err := core.LoadFile(file)
		if err != nil {
			return nil, err
		}
		return serve.NewStaticRegistry("default", m), nil
	default:
		return nil, fmt.Errorf("need -models <dir>, -model <file> or -store <dir>")
	}
}
