package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"cachebox/internal/heatmap"
	"cachebox/internal/metrics"
	"cachebox/internal/sampling"
	"cachebox/internal/store"
	"cachebox/internal/stream"
	"cachebox/internal/workload"
)

type storeVerb func(c *cli, s *store.Store, args []string) error

// store runs `cachebox store [-store DIR] <verb>` on the
// content-addressed artifact store (internal/store). put publishes a
// file, e.g. a trained .cbgan, so cbx-serve replicas can pull it with
// -store: a "model" entry with a name input is what the serving
// registry looks for.
func (c *cli) store(args []string) error {
	return c.storeGroup("store", "ls|info|cat|put|verify|gc|rm", map[string]storeVerb{
		"ls": (*cli).storeLs, "info": (*cli).storeInfo, "cat": (*cli).storeCat,
		"put": (*cli).storePut, "verify": (*cli).storeVerify, "gc": (*cli).storeGC, "rm": (*cli).storeRm,
	}, args)
}

// dataset runs `cachebox dataset [-store DIR] <verb>` on the sharded
// streaming datasets of internal/stream. build streams every benchmark
// × cache through the simulator one heatmap window at a time into
// fixed-size shards and publishes a manifest; with -sample only
// cluster-representative windows are simulated, weighted so training
// stays unbiased. verify re-hashes every shard a manifest references.
func (c *cli) dataset(args []string) error {
	return c.storeGroup("dataset", "build|ls|stat|verify", map[string]storeVerb{
		"build": (*cli).datasetBuild, "ls": (*cli).datasetLs,
		"stat": (*cli).datasetStat, "verify": (*cli).datasetVerify,
	}, args)
}

// storeGroup parses `cachebox <group> [-store DIR] <verb> [args]`,
// opens the store and runs the verb.
func (c *cli) storeGroup(group, names string, verbs map[string]storeVerb, args []string) error {
	fs := c.flags(group)
	dir := fs.String("store", "artifacts/store", "store root directory")
	if err := parse(fs, args); err != nil {
		return err
	}
	verb := verbs[fs.Arg(0)]
	if verb == nil {
		return usageError(fmt.Sprintf("usage: cachebox %s [-store DIR] <%s> [args]", group, names))
	}
	s, err := store.Open(*dir)
	if err != nil {
		return err
	}
	return verb(c, s, fs.Args()[1:])
}

// digestArg resolves the one digest-prefix argument of a verb.
func digestArg(s *store.Store, verb string, args []string) (string, error) {
	if len(args) != 1 {
		return "", usageError(verb + " takes exactly one digest prefix")
	}
	return s.ResolvePrefix(args[0])
}

const timeFormat = "2006-01-02T15:04:05Z"

func (c *cli) storeLs(s *store.Store, _ []string) error {
	entries, err := s.Entries()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(c, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "DIGEST\tKIND\tSIZE\tCREATED\tINPUTS")
	for _, e := range entries {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\n",
			e.Digest[:12], e.Kind, e.Size, e.CreatedAt.Format(timeFormat), inputsSummary(e.Inputs, 3))
	}
	return tw.Flush()
}

// sortedNames returns the input names of a store key in order.
func sortedNames(inputs map[string]string) []string {
	names := make([]string, 0, len(inputs))
	for name := range inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// inputsSummary renders up to max name=value pairs, sorted by name.
func inputsSummary(inputs map[string]string, max int) string {
	names := sortedNames(inputs)
	out := ""
	for i, name := range names {
		if i >= max {
			out += fmt.Sprintf(" +%d more", len(names)-max)
			break
		}
		if i > 0 {
			out += " "
		}
		out += name + "=" + inputs[name]
	}
	return out
}

func (c *cli) storeInfo(s *store.Store, args []string) error {
	digest, err := digestArg(s, "info", args)
	if err != nil {
		return err
	}
	rc, man, err := s.OpenDigest(digest)
	if err != nil {
		return err
	}
	//lint:ignore unchecked-error read-only handle closed at process exit; nothing to flush
	defer rc.Close()
	c.Printf("digest:  %s\nkind:    %s\nformat:  %d\nsize:    %d bytes\nsha256:  %s\ncreated: %s\n",
		man.Digest, man.Kind, man.Format, man.Size, man.SHA256, man.CreatedAt.Format(timeFormat))
	for _, name := range sortedNames(man.Inputs) {
		c.Printf("input:   %s = %s\n", name, man.Inputs[name])
	}
	return nil
}

func (c *cli) storeCat(s *store.Store, args []string) error {
	digest, err := digestArg(s, "cat", args)
	if err != nil {
		return err
	}
	rc, _, err := s.OpenDigest(digest)
	if err != nil {
		return err
	}
	_, err = io.Copy(c, rc)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	return err
}

func (c *cli) storePut(s *store.Store, args []string) error {
	fs := c.flags("store put")
	kind := fs.String("kind", "model", "artifact kind")
	format := fs.Int("format", 1, "payload format version")
	inputs := map[string]string{}
	fs.Func("input", "producing input as name=value (repeatable); models need at least name=<model-name>", func(v string) error {
		name, value, ok := strings.Cut(v, "=")
		if !ok || name == "" {
			return fmt.Errorf("input %q: want name=value", v)
		}
		inputs[name] = value
		return nil
	})
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usageError("put takes exactly one payload file")
	}
	src, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	man, err := s.Put(store.Key{Kind: *kind, Format: *format, Inputs: inputs}, func(w io.Writer) error {
		_, err := io.Copy(w, src)
		return err
	})
	if cerr := src.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	c.Printf("stored %s kind=%s size=%d (%s)\n", man.Digest[:12], man.Kind, man.Size, inputsSummary(man.Inputs, 3))
	return nil
}

func (c *cli) storeVerify(s *store.Store, _ []string) error {
	entries, err := s.Entries()
	if err != nil {
		return err
	}
	bad, err := s.VerifyAll()
	if err != nil {
		return err
	}
	if len(bad) == 0 {
		c.Printf("ok: %d entries verified\n", len(entries))
		return nil
	}
	for _, d := range bad {
		c.Printf("corrupt: %s\n", d)
	}
	return fmt.Errorf("%d of %d entries corrupt", len(bad), len(entries))
}

func (c *cli) storeGC(s *store.Store, args []string) error {
	fs := c.flags("store gc")
	maxBytes := fs.Int64("max-bytes", 1<<30, "evict least-recently-used entries until total payload size fits")
	if err := parse(fs, args); err != nil {
		return err
	}
	stats, err := s.GC(*maxBytes)
	if err != nil {
		return err
	}
	c.Printf("gc: scanned %d, deleted %d, freed %d bytes, %d bytes kept\n",
		stats.Scanned, stats.Deleted, stats.BytesFreed, stats.BytesKept)
	return nil
}

func (c *cli) storeRm(s *store.Store, args []string) error {
	digest, err := digestArg(s, "rm", args)
	if err != nil {
		return err
	}
	if err := s.Remove(digest); err != nil {
		return err
	}
	c.Printf("removed %s\n", digest[:12])
	return nil
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

func (c *cli) datasetBuild(st *store.Store, args []string) error {
	fs := c.flags("dataset build")
	name := fs.String("name", "dataset", "dataset name recorded in the manifest")
	suites := fs.String("suites", "spec", "comma-separated workload families: spec,ligra,poly,zipf,server")
	groups := fs.Int("groups", 5, "spec-like program groups")
	phases := fs.Int("phases", 2, "spec-like phases per program")
	ops := fs.Int("ops", 20000, "per-benchmark access budget")
	sizeScale := fs.Float64("size-scale", 0.15, "problem-size scale of the non-spec suites")
	caches := fs.String("cache", "64set-12way", "comma-separated cache geometries (LRU, 64B blocks)")
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
	if err := parse(fs, args); err != nil {
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
	hw, ww, _ := strings.Cut(*geom, "x")
	var herr, werr error
	hm.Height, herr = strconv.Atoi(hw)
	hm.Width, werr = strconv.Atoi(ww)
	if herr != nil || werr != nil {
		return fmt.Errorf("heatmap %q: want HxW", *geom)
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
	c.Printf("built %s\n%s\n%s\n", sm.Digest[:12], man.Summary(), metrics.RuntimeSummary())
	return nil
}

func (c *cli) datasetLs(st *store.Store, _ []string) error {
	entries, err := st.Entries()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(c, 2, 4, 2, ' ', 0)
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
			e.Digest[:12], man.Name, man.TotalWindows, len(man.Items), mode, e.CreatedAt.Format(timeFormat))
	}
	return tw.Flush()
}

func (c *cli) datasetStat(st *store.Store, args []string) error {
	digest, err := digestArg(st, "stat", args)
	if err != nil {
		return err
	}
	man, sm, err := stream.LoadManifest(st, digest)
	if err != nil {
		return err
	}
	c.Printf("digest: %s\nsha256: %s\n%s\n", sm.Digest, sm.SHA256, man.Summary())
	if sp := man.Sampling; sp != nil {
		c.Printf("sampling: k=%d dim=%d seed=%d, %d of %d windows kept\n",
			sp.Config.K, sp.Config.SignatureDim, sp.Config.Seed, sp.Representatives, sp.TotalWindows)
	}
	tw := tabwriter.NewWriter(c, 2, 4, 2, ' ', 0)
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

func (c *cli) datasetVerify(st *store.Store, args []string) error {
	digest, err := digestArg(st, "verify", args)
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
	c.Printf("ok: %d shards verified (%d samples)\n", n, man.TotalWindows)
	return nil
}
