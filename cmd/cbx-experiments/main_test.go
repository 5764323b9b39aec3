package main

import (
	"io"
	"path/filepath"
	"testing"
)

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-no-such-flag"}, 2},
		{[]string{"-scale", "huge"}, 2},
		{[]string{"-config", filepath.Join(dir, "missing.json")}, 2},
		{[]string{"-artifacts", dir, "-no-store", "-run", "none"}, 0},
	} {
		if got := run(tc.args, io.Discard, io.Discard); got != tc.want {
			t.Errorf("%v: exit %d, want %d", tc.args, got, tc.want)
		}
	}
}
