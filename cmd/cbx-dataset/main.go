// Command cbx-dataset builds and inspects streaming datasets: the
// sharded, content-addressed training sets of internal/stream. A build
// streams every benchmark × cache configuration through the simulator
// one heatmap window at a time (never materialising a trace) into
// fixed-size shards, and publishes a manifest that cbx-dataset — and
// Pipeline.DatasetSource / cbx-experiments with its store on — can
// recall by digest. With -sample only cluster-representative windows are
// simulated (SimPoint-style), cutting simulator invocations while the
// emitted weights keep training unbiased.
//
// Usage:
//
//	cbx-dataset [-root dir] build [-name N] [-suites spec,ligra,poly,zipf,server]
//	            [-groups N] [-phases N] [-ops N] [-size-scale F]
//	            [-cache SETSxWAYS[,SETSxWAYS...]] [-heatmap HxW] [-window N]
//	            [-max-windows N] [-shard-windows N] [-min-hit-rate F]
//	            [-sample] [-sample-k N] [-sample-dim N] [-sample-seed N] [-j N]
//	cbx-dataset [-root dir] ls
//	cbx-dataset [-root dir] stat <digest-prefix>
//	cbx-dataset [-root dir] verify <digest-prefix>
//
// ls lists every dataset manifest in the store; stat prints one
// manifest's summary and per-item table; verify re-opens every shard
// the manifest references and checks content hashes and window counts.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"cachebox/internal/cachesim"
	"cachebox/internal/heatmap"
	"cachebox/internal/metrics"
	"cachebox/internal/sampling"
	"cachebox/internal/store"
	"cachebox/internal/stream"
	"cachebox/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cbx-dataset:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cbx-dataset", flag.ContinueOnError)
	root := fs.String("root", "artifacts/store", "store root directory")
	storeAlias := fs.String("store", "", "alias for -root (matches the -store flag of the other tools)")
	fs.Usage = func() {
		//lint:ignore unchecked-error usage text on the flag set's stderr; flag's own defaults printing is equally unchecked
		fmt.Fprintf(fs.Output(), "usage: cbx-dataset [-root dir] <build|ls|stat|verify> [args]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeAlias != "" {
		*root = *storeAlias
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return fmt.Errorf("missing subcommand")
	}
	st, err := store.Open(*root)
	if err != nil {
		return err
	}
	cmd, rest := rest[0], rest[1:]
	switch cmd {
	case "build":
		return cmdBuild(st, rest, out)
	case "ls":
		return cmdLs(st, out)
	case "stat":
		return cmdStat(st, rest, out)
	case "verify":
		return cmdVerify(st, rest, out)
	default:
		fs.Usage()
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// parseCaches parses "64x12,128x6" into LRU cache configurations.
func parseCaches(spec string) ([]cachesim.Config, error) {
	var out []cachesim.Config
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		sets, ways, ok := strings.Cut(part, "x")
		if !ok {
			return nil, fmt.Errorf("cache %q: want SETSxWAYS", part)
		}
		s, err := strconv.Atoi(sets)
		if err != nil {
			return nil, fmt.Errorf("cache %q: bad set count: %v", part, err)
		}
		w, err := strconv.Atoi(ways)
		if err != nil {
			return nil, fmt.Errorf("cache %q: bad way count: %v", part, err)
		}
		out = append(out, cachesim.Config{Sets: s, Ways: w})
	}
	return out, nil
}

// parseSuites assembles benchmarks from a comma-separated family list.
func parseSuites(spec string, groups, phases, ops int, sizeScale float64) ([]workload.Benchmark, error) {
	var out []workload.Benchmark
	for _, name := range strings.Split(spec, ",") {
		var s workload.Suite
		switch strings.TrimSpace(name) {
		case "spec":
			s = workload.SpecLike(groups, phases, ops)
		case "ligra":
			s = workload.LigraLike(ops, sizeScale)
		case "poly":
			s = workload.PolyLike(ops, sizeScale)
		case "zipf":
			s = workload.ZipfLike(ops, sizeScale)
		case "server":
			s = workload.ServerLike(ops, sizeScale)
		default:
			return nil, fmt.Errorf("unknown suite %q (spec|ligra|poly|zipf|server)", name)
		}
		out = append(out, s.Benchmarks...)
	}
	return out, nil
}

func cmdBuild(st *store.Store, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cbx-dataset build", flag.ContinueOnError)
	name := fs.String("name", "dataset", "dataset name recorded in the manifest")
	suites := fs.String("suites", "spec", "comma-separated workload families: spec,ligra,poly,zipf,server")
	groups := fs.Int("groups", 5, "spec-like program groups")
	phases := fs.Int("phases", 2, "spec-like phases per program")
	ops := fs.Int("ops", 20000, "per-benchmark access budget")
	sizeScale := fs.Float64("size-scale", 0.15, "problem-size scale of the non-spec suites")
	caches := fs.String("cache", "64x12", "cache configurations as SETSxWAYS[,SETSxWAYS...] (LRU, 64B blocks)")
	geom := fs.String("heatmap", "16x16", "heatmap geometry as HxW")
	window := fs.Uint64("window", 150, "instructions per heatmap column")
	maxWindows := fs.Int("max-windows", 0, "cap windows per item (0 = all)")
	shardWindows := fs.Int("shard-windows", 64, "windows per stored shard")
	minHitRate := fs.Float64("min-hit-rate", 0, "exclude items below this simulated hit rate")
	sample := fs.Bool("sample", false, "simulate only cluster-representative windows (weighted)")
	sampleK := fs.Int("sample-k", 8, "clusters per representative-sampling plan")
	sampleDim := fs.Int("sample-dim", 64, "access-signature dimension for sampling")
	sampleSeed := fs.Int64("sample-seed", 1, "k-means seed for sampling")
	workers := fs.Int("j", 0, "build worker-pool width (0 = GOMAXPROCS); manifests are byte-identical at any width")
	if err := fs.Parse(args); err != nil {
		return err
	}

	benches, err := parseSuites(*suites, *groups, *phases, *ops, *sizeScale)
	if err != nil {
		return err
	}
	cfgs, err := parseCaches(*caches)
	if err != nil {
		return err
	}
	hm := heatmap.DefaultConfig()
	hw, ww, ok := strings.Cut(*geom, "x")
	if !ok {
		return fmt.Errorf("heatmap %q: want HxW", *geom)
	}
	if hm.Height, err = strconv.Atoi(hw); err != nil {
		return fmt.Errorf("heatmap %q: %v", *geom, err)
	}
	if hm.Width, err = strconv.Atoi(ww); err != nil {
		return fmt.Errorf("heatmap %q: %v", *geom, err)
	}
	hm.WindowInstr = *window

	bc := stream.BuildConfig{
		Name:         *name,
		Heatmap:      hm,
		MaxWindows:   *maxWindows,
		ShardWindows: *shardWindows,
		MinHitRate:   *minHitRate,
		Workers:      *workers,
	}
	if *sample {
		bc.Sampling = &sampling.Config{K: *sampleK, SignatureDim: *sampleDim, Seed: *sampleSeed}
	}
	man, sm, err := stream.Build(context.Background(), st, benches, cfgs, bc)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(out, "built %s\n%s\n", sm.Digest[:12], man.Summary()); err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, metrics.RuntimeSummary())
	return err
}

func cmdLs(st *store.Store, out io.Writer) error {
	entries, err := st.Entries()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "DIGEST\tNAME\tSAMPLES\tITEMS\tMODE\tCREATED")
	for _, e := range entries {
		if e.Kind != stream.KindDataset {
			continue
		}
		man, _, err := stream.LoadManifest(st, e.Digest)
		if err != nil {
			fmt.Fprintf(tw, "%s\t(unreadable: %v)\n", e.Digest[:12], err)
			continue
		}
		mode := "full"
		if man.Sampling != nil {
			mode = fmt.Sprintf("sampled:k=%d", man.Sampling.Config.K)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%s\t%s\n",
			e.Digest[:12], man.Name, man.TotalWindows, len(man.Items), mode,
			e.CreatedAt.Format("2006-01-02T15:04:05Z"))
	}
	return tw.Flush()
}

func cmdStat(st *store.Store, args []string, out io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("stat takes exactly one digest prefix")
	}
	digest, err := st.ResolvePrefix(args[0])
	if err != nil {
		return err
	}
	man, sm, err := stream.LoadManifest(st, digest)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(out, "digest: %s\nsha256: %s\n%s\n", sm.Digest, sm.SHA256, man.Summary()); err != nil {
		return err
	}
	if man.Sampling != nil {
		if _, err := fmt.Fprintf(out, "sampling: k=%d dim=%d seed=%d, %d of %d windows kept\n",
			man.Sampling.Config.K, man.Sampling.Config.SignatureDim, man.Sampling.Config.Seed,
			man.Sampling.Representatives, man.Sampling.TotalWindows); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "BENCH\tCACHE\tHITRATE\tWINDOWS\tSHARDS\tSTATE")
	for _, it := range man.Items {
		state := "ok"
		switch {
		case it.Skipped:
			state = "skipped"
		case it.Filtered:
			state = "filtered"
		}
		hr := "-"
		if it.HitRate >= 0 {
			hr = fmt.Sprintf("%.4f", it.HitRate)
		}
		fmt.Fprintf(tw, "%s\t%dx%d-%v\t%s\t%d\t%d\t%s\n",
			it.Bench, it.Cache.Sets, it.Cache.Ways, it.Cache.Policy, hr, it.Windows, len(it.Shards), state)
	}
	return tw.Flush()
}

func cmdVerify(st *store.Store, args []string, out io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("verify takes exactly one digest prefix")
	}
	digest, err := st.ResolvePrefix(args[0])
	if err != nil {
		return err
	}
	man, _, err := stream.LoadManifest(st, digest)
	if err != nil {
		return err
	}
	n, err := man.Verify(st)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "ok: %d shards verified (%d samples)\n", n, man.TotalWindows)
	return err
}
