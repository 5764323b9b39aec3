// Package httpx runs the process lifecycle the HTTP services
// (cbx-serve, cbx-gateway, cbx-traind) share: listen, serve until the
// context ends, stop the listener within a drain budget, drain the
// service, and write its trace file.
package httpx

import (
	"context"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"time"

	"cachebox/internal/obs"
)

// Service is one HTTP service process.
type Service struct {
	// Name names the trace file <TraceDir>/<Name>-trace.json.
	Name    string
	Addr    string
	Handler http.Handler
	// Detail follows the bound address on the "listening on" line.
	Detail string
	// Pprof mounts the net/http/pprof handlers under /debug/pprof/.
	Pprof bool
	// Start, when set, runs with the serving context before the
	// listener accepts requests.
	Start func(context.Context)
	// Drain, when set, runs once the listener has shut down, so every
	// request the service accepted is answered or cancelled.
	Drain func()
	// DrainTimeout bounds the listener shutdown.
	DrainTimeout time.Duration
	// TraceDir, when set, receives Collector's trace-event file after
	// the drain.
	TraceDir  string
	Collector *obs.Collector
	// Log receives the lifecycle lines, the bound address first.
	Log *log.Logger
}

// Run serves s until ctx ends, then shuts it down in order: listener,
// Drain, trace file. It returns an error only if the listener cannot
// be opened or fails while serving.
func Run(ctx context.Context, s Service) error {
	ln, err := net.Listen("tcp", s.Addr)
	if err != nil {
		return err
	}
	handler := s.Handler
	if s.Pprof {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", s.Handler)
		handler = mux
	}
	hs := &http.Server{Handler: handler}
	if s.Start != nil {
		s.Start(ctx)
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	s.Log.Printf("listening on %s, %s", ln.Addr(), s.Detail)

	select {
	case <-ctx.Done():
	case err := <-errc:
		return err
	}
	s.Log.Print("shutting down, draining")
	sctx, cancel := context.WithTimeout(context.Background(), s.DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		s.Log.Printf("shutdown: %v", err)
	}
	if s.Drain != nil {
		s.Drain()
	}
	s.Log.Print("drained")
	if s.TraceDir != "" {
		path := filepath.Join(s.TraceDir, s.Name+"-trace.json")
		if err := os.MkdirAll(s.TraceDir, 0o755); err != nil {
			s.Log.Printf("trace dir: %v", err)
		} else if err := s.Collector.WriteFile(path); err != nil {
			s.Log.Printf("write trace: %v", err)
		} else {
			s.Log.Printf("wrote %d trace events to %s", s.Collector.EventCount(), path)
		}
	}
	return nil
}
