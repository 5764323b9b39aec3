package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"cachebox/internal/httpx/httpxtest"
)

func TestGatewayHealthzAndDrain(t *testing.T) {
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.WriteString(w, `{"status":"ok"}`); err != nil {
			t.Error(err)
		}
	}))
	defer replica.Close()
	httpxtest.HealthzAndStop(t, run, "-replicas", replica.URL)
}

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-no-such-flag"}, 2},
		{nil, 2}, // no -replicas
		{[]string{"-merge", filepath.Join(dir, "out.json")}, 2},
		{[]string{"-merge", filepath.Join(dir, "out.json"), filepath.Join(dir, "missing.json")}, 1},
	} {
		if got := run(context.Background(), tc.args, io.Discard, io.Discard); got != tc.want {
			t.Errorf("%v: exit %d, want %d", tc.args, got, tc.want)
		}
	}
}
