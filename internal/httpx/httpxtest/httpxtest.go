// Package httpxtest drives a service's run function in tests: it
// starts the service on an ephemeral port, finds the port from the
// "listening on" line httpx.Run logs, and stops it through its context.
package httpxtest

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"regexp"
	"sync"
	"testing"
)

// RunFunc is a service main's run: it serves until ctx ends and
// returns the exit code.
type RunFunc func(ctx context.Context, args []string, stdout, stderr io.Writer) int

var listening = regexp.MustCompile(`listening on (\S+),`)

// stderrAddr captures run's stderr and hands over the address from
// its "listening on" line.
type stderrAddr struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
}

func (w *stderrAddr) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if m := listening.FindSubmatch(p); m != nil {
		w.addr <- string(m[1])
	}
	return w.buf.Write(p)
}

func (w *stderrAddr) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// HealthzAndStop runs the service with args on 127.0.0.1:0, expects
// GET /healthz to answer 200, then cancels its context and expects
// exit code 0.
func HealthzAndStop(t testing.TB, run RunFunc, args ...string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stderr := &stderrAddr{addr: make(chan string, 1)}
	done := make(chan int, 1)
	go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard, stderr) }()
	var addr string
	select {
	case addr = <-stderr.addr:
	case code := <-done:
		t.Fatalf("exited %d before listening:\n%s", code, stderr)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %s", resp.Status)
	}
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("exit %d after cancel:\n%s", code, stderr)
	}
}
