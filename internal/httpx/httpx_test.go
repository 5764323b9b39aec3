package httpx_test

import (
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cachebox/internal/httpx"
	"cachebox/internal/httpx/httpxtest"
	"cachebox/internal/obs"
)

// TestLifecycleOrder serves, then checks that shutdown runs Start
// before serving and Drain before the trace file is written.
func TestLifecycleOrder(t *testing.T) {
	dir := t.TempDir()
	var events []string
	col := obs.NewCollector(obs.Options{Trace: true})
	run := func(ctx context.Context, args []string, _, stderr io.Writer) int {
		err := httpx.Run(ctx, httpx.Service{
			Name: "svc", Addr: args[1], Pprof: true,
			Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}),
			Start:   func(context.Context) { events = append(events, "start") },
			Drain: func() {
				if _, err := os.Stat(filepath.Join(dir, "svc-trace.json")); !os.IsNotExist(err) {
					t.Errorf("trace file present before drain: %v", err)
				}
				events = append(events, "drain")
			},
			DrainTimeout: time.Second,
			TraceDir:     dir,
			Collector:    col,
			Log:          log.New(stderr, "", 0),
		})
		if err != nil {
			return 1
		}
		return 0
	}
	httpxtest.HealthzAndStop(t, run)
	if want := []string{"start", "drain"}; !reflect.DeepEqual(events, want) {
		t.Fatalf("events %v, want %v", events, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "svc-trace.json")); err != nil {
		t.Fatalf("trace file: %v", err)
	}
}

func TestListenError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := ln.Close(); err != nil {
			t.Error(err)
		}
	}()
	err = httpx.Run(context.Background(), httpx.Service{Addr: ln.Addr().String(), Log: log.New(io.Discard, "", 0)})
	if err == nil {
		t.Fatal("Run on a bound address returned nil")
	}
}
