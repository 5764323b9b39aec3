package main

import (
	"context"
	"io"
	"path/filepath"
	"testing"

	"cachebox/internal/httpx/httpxtest"
)

func TestTraindHealthzAndDrain(t *testing.T) {
	httpxtest.HealthzAndStop(t, run, "-store", filepath.Join(t.TempDir(), "store"))
}

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-no-such-flag"}, 2},
		{nil, 2}, // no -store and no -submit
		{[]string{"-submit", filepath.Join(dir, "missing.json")}, 1},
	} {
		if got := run(context.Background(), tc.args, io.Discard, io.Discard); got != tc.want {
			t.Errorf("%v: exit %d, want %d", tc.args, got, tc.want)
		}
	}
}
