package main

import (
	"context"
	"io"
	"path/filepath"
	"testing"

	"cachebox/internal/core"
	"cachebox/internal/httpx/httpxtest"
)

func TestServeHealthzAndDrain(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ImageSize, cfg.NGF, cfg.NDF, cfg.DLayers, cfg.CondHidden, cfg.CondChannels = 16, 2, 2, 1, 4, 2
	m, err := core.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.cbgan")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	httpxtest.HealthzAndStop(t, run, "-model", path)
}

func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-no-such-flag"}, 2},
		{nil, 2}, // no model source
		{[]string{"-model", "a.cbgan", "-models", "dir"}, 2},
		{[]string{"-model", filepath.Join(t.TempDir(), "missing.cbgan")}, 1},
	} {
		if got := run(context.Background(), tc.args, io.Discard, io.Discard); got != tc.want {
			t.Errorf("%v: exit %d, want %d", tc.args, got, tc.want)
		}
	}
}
