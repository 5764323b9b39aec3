// Command cbx-gateway runs the CacheBox scale-out front tier: a
// sharding, health-gated, hedging reverse proxy over a fleet of
// cbx-serve replicas.
//
// Run in front of two replicas:
//
//	cbx-gateway -addr :8090 \
//	    -replicas http://127.0.0.1:8081,http://127.0.0.1:8082
//
// Requests for the same (model, condition) consistently hash onto the
// same replica so its micro-batcher sees coalescable traffic; replicas
// failing health checks are ejected and readmitted with backoff;
// replica 429 backpressure is retried onto candidates with headroom or
// shed at the gateway; slow primaries are hedged at an adaptive p95
// budget (first response wins, the loser is cancelled).
//
// Merge per-process Chrome trace files into one multi-process trace:
//
//	cbx-gateway -merge merged.json gw-trace.json replica1.json ...
//
// Endpoints: POST /v1/predict (proxied), GET /v1/models (forwarded),
// GET /v1/replicas (health-gate state), GET /v1/ring (debug shard
// assignment), GET /healthz, GET /metrics.
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
	"strings"
	"syscall"
	"time"

	"cachebox/internal/gateway"
	"cachebox/internal/httpx"
	"cachebox/internal/obs"
)

func main() {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run serves until ctx ends (or merges trace files with -merge) and
// returns the exit code: 0 ok, 1 a failure, 2 a usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cbx-gateway", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8090", "listen address")
	replicas := fs.String("replicas", "", "comma-separated cbx-serve base URLs (required)")
	vnodes := fs.Int("vnodes", 64, "virtual nodes per replica on the hash ring")
	healthInterval := fs.Duration("health-interval", 500*time.Millisecond, "health-poll period")
	healthTimeout := fs.Duration("health-timeout", 2*time.Second, "health-probe timeout")
	ejectAfter := fs.Int("eject-after", 3, "consecutive failures before a replica is ejected")
	readmitBackoff := fs.Duration("readmit-backoff", time.Second, "initial probe backoff for ejected replicas")
	maxBackoff := fs.Duration("max-backoff", 30*time.Second, "probe backoff cap")
	noRetry := fs.Bool("no-retry-429", false, "disable retrying replica backpressure onto the next candidate")
	shedFrac := fs.Float64("shed-frac", 0.8, "retry a 429 only onto a candidate below this fraction of queue capacity")
	noHedge := fs.Bool("no-hedge", false, "disable tail-latency hedging")
	hedgeQuantile := fs.Float64("hedge-quantile", 0.95, "latency quantile used as the adaptive hedge budget")
	hedgeMin := fs.Duration("hedge-min", 2*time.Millisecond, "hedge budget floor (and cold-start budget)")
	hedgeAfter := fs.Duration("hedge-after", 0, "fixed hedge delay overriding the adaptive budget (0 = adaptive)")
	timeout := fs.Duration("timeout", 30*time.Second, "end-to-end proxied request timeout")
	drainWait := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
	traceDir := fs.String("trace-dir", "", "write a Chrome trace-event file of the gateway spans to this directory at shutdown")
	mergeOut := fs.String("merge", "", "merge trace files given as positional args into this output file and exit")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof handlers under /debug/pprof/ (opt-in)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logger := log.New(stderr, "cbx-gateway: ", log.LstdFlags|log.Lmsgprefix)

	if *mergeOut != "" {
		if fs.NArg() == 0 {
			logger.Print("-merge needs at least one input trace file")
			return 2
		}
		if err := obs.MergeTraceFiles(*mergeOut, fs.Args()); err != nil {
			logger.Print("merge: ", err)
			return 1
		}
		if _, err := fmt.Fprintf(stdout, "merged %d trace file(s) into %s\n", fs.NArg(), *mergeOut); err != nil {
			return 1
		}
		return 0
	}

	fleet := splitReplicas(*replicas)
	if len(fleet) == 0 {
		logger.Print("-replicas is required (comma-separated base URLs)")
		return 2
	}

	// Like cbx-serve: span histograms always, trace buffering only when
	// a trace file was requested.
	collector := obs.NewCollector(obs.Options{Trace: *traceDir != ""})
	obs.Install(collector)
	defer obs.Install(nil)

	g, err := gateway.New(gateway.Config{
		Replicas:        fleet,
		VNodes:          *vnodes,
		HealthInterval:  *healthInterval,
		HealthTimeout:   *healthTimeout,
		EjectAfter:      *ejectAfter,
		ReadmitBackoff:  *readmitBackoff,
		MaxBackoff:      *maxBackoff,
		DisableRetry429: *noRetry,
		ShedFraction:    *shedFrac,
		DisableHedge:    *noHedge,
		HedgeQuantile:   *hedgeQuantile,
		HedgeMin:        *hedgeMin,
		HedgeAfter:      *hedgeAfter,
		RequestTimeout:  *timeout,
	})
	if err != nil {
		logger.Print(err)
		return 1
	}
	err = httpx.Run(ctx, httpx.Service{
		Name: "cbx-gateway", Addr: *addr, Handler: g, Pprof: *pprofOn,
		Detail: fmt.Sprintf("fronting %d replica(s)", len(fleet)),
		Start:  g.Start, Drain: g.Wait, DrainTimeout: *drainWait,
		TraceDir: *traceDir, Collector: collector, Log: logger,
	})
	if err != nil {
		logger.Print(err)
		return 1
	}
	return 0
}

// splitReplicas parses the -replicas flag, trimming whitespace and
// trailing slashes and dropping empties.
func splitReplicas(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimRight(strings.TrimSpace(part), "/")
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}
