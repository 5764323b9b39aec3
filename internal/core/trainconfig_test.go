package core

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestResolveTrainConfig pins the trainer CLIs' precedence, flag
// defaults < -config file < flags set on the command line, for every
// field either CLI binds: cachebox train's flag set and
// cbx-experiments' (no -epochs or -batch, -checkpoint-every 5).
func TestResolveTrainConfig(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	sevens := write("sevens.json", `{"epochs":7,"batch_size":7,"seed":9,
		"checkpoint":{"every":7,"path":"m.ckpt"},"parallel":{"shards":7,"workers":7}}`)
	zeros := write("zeros.json", `{"epochs":0,"batch_size":0,"seed":0,
		"checkpoint":{"every":0},"parallel":{"shards":0,"workers":0}}`)

	cachebox := map[string]int{"epochs": 50, "batch": 8, "shards": 0, "j": 0, "checkpoint-every": 0}
	experiments := map[string]int{"shards": 0, "j": 0, "checkpoint-every": 5}
	get := map[string]func(TrainConfig) int{
		"epochs":           func(c TrainConfig) int { return c.Epochs },
		"batch":            func(c TrainConfig) int { return c.BatchSize },
		"shards":           func(c TrainConfig) int { return c.Parallel.Shards },
		"j":                func(c TrainConfig) int { return c.Parallel.Workers },
		"checkpoint-every": func(c TrainConfig) int { return c.Checkpoint.Every },
	}
	for _, cli := range []struct {
		name     string
		defaults map[string]int
	}{{"cachebox", cachebox}, {"cbx-experiments", experiments}} {
		for field, read := range get {
			def, bound := cli.defaults[field]
			for _, tc := range []struct {
				config string
				flag   bool
				want   int
			}{
				{"", false, def},    // flag left at its default
				{"", true, 3},       // flag set
				{sevens, false, 7},  // config field set
				{sevens, true, 3},   // config field set, flag set
				{zeros, false, def}, // config field written as 0
				{zeros, true, 3},    // config field 0, flag set
			} {
				if !bound {
					// The CLI has no such flag: the file's value stands.
					tc.want = 0
					if tc.config == sevens {
						tc.want = 7
					}
					if tc.flag {
						continue
					}
				}
				fs := flag.NewFlagSet(cli.name, flag.ContinueOnError)
				for name, v := range cli.defaults {
					fs.Int(name, v, "")
				}
				var args []string
				if tc.flag {
					args = []string{"-" + field, "3"}
				}
				if err := fs.Parse(args); err != nil {
					t.Fatal(err)
				}
				c, err := ResolveTrainConfig(tc.config, fs)
				if err != nil {
					t.Fatal(err)
				}
				if got := read(c); got != tc.want {
					t.Errorf("%s %s: config %q flag set %v: got %d, want %d",
						cli.name, field, filepath.Base(tc.config), tc.flag, got, tc.want)
				}
			}
		}
	}

	for config, want := range map[string]int64{"": 1, zeros: 1, sevens: 9} {
		c, err := ResolveTrainConfig(config, flag.NewFlagSet("x", flag.ContinueOnError))
		if err != nil {
			t.Fatal(err)
		}
		if c.Seed != want {
			t.Errorf("config %q: Seed %d, want %d", filepath.Base(config), c.Seed, want)
		}
	}
	if _, err := ResolveTrainConfig(filepath.Join(dir, "missing.json"), flag.NewFlagSet("x", flag.ContinueOnError)); err == nil {
		t.Error("missing config file accepted")
	}
}
