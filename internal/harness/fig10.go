package harness

import (
	"cachebox/internal/core"
	"cachebox/internal/obs"
	"cachebox/internal/stream"
	"cachebox/internal/workload"
	"context"
	"fmt"
)

// Fig10Result is the RQ4 outcome: per-level accuracy of a combined
// L1+L2+L3 model (trained without cache parameters) versus standalone
// per-level models (paper Figure 10: combined 3.23/17.63/14.06%,
// standalone 3.70/11.40/15.89%).
type Fig10Result struct {
	// Combined[i] and Standalone[i] are level i's evaluations.
	Combined, Standalone []ConfigResult
}

// levelSamples builds per-level training samples by running the full
// hierarchy, applying the paper's per-level data-regime thresholds.
// Level i's access stream is level i-1's miss stream.
func (r *Runner) levelSamples(benches []workload.Benchmark, withParams bool) ([][]core.Sample, error) {
	out := make([][]core.Sample, len(HierarchyConfigs))
	for bi, ht := range r.truth().Hierarchy(context.Background(), benches, HierarchyConfigs) {
		if ht.Err != nil {
			return nil, ht.Err
		}
		for i := range ht.Rates {
			if ht.Rates[i] < levelThresholds[i] {
				continue
			}
			if ht.Errs[i] != nil {
				return nil, ht.Errs[i]
			}
			var params []float32
			if withParams {
				params = core.CacheParams(HierarchyConfigs[i])
			}
			for _, pr := range ht.Pairs[i] {
				out[i] = append(out[i], core.Sample{Access: pr.Access, Miss: pr.Miss, Params: params, Bench: benches[bi].Name})
			}
		}
	}
	return out, nil
}

// evalLevel evaluates a model on one hierarchy level of one
// benchmark's simulated truth.
func (r *Runner) evalLevel(m *core.Model, ht stream.LevelTruth, level int) (trueHR, predHR float64, err error) {
	if ht.Err != nil {
		return 0, 0, ht.Err
	}
	if ht.Errs[level] != nil {
		return 0, 0, ht.Errs[level]
	}
	var params []float32
	if m.Cfg.CondDim > 0 {
		params = core.CacheParams(HierarchyConfigs[level])
	}
	return m.Score(r.Profile.Heatmap, ht.Pairs[level], params, 8)
}

// Fig10 runs RQ4: the combined model (no cache parameters) and three
// standalone per-level models over the L1/L2/L3 hierarchy.
func (r *Runner) Fig10() (*Fig10Result, error) {
	_, figSpan := obs.Start(context.Background(), "harness.fig10")
	defer figSpan.End()
	train, test := r.split(r.specSuite().Benchmarks)

	// Combined model: all levels, CondDim = 0 (paper: "trained without
	// any cache parameters, specifically to evaluate CB-GAN's ability
	// to generalize without explicit architectural context").
	combined, err := r.trainOrLoad("fig10-combined", func() (*core.Model, error) {
		levels, err := r.levelSamples(train, false)
		if err != nil {
			return nil, err
		}
		var ds []core.Sample
		for _, ls := range levels {
			ds = append(ds, ls...)
		}
		if len(ds) == 0 {
			return nil, fmt.Errorf("harness: no hierarchy samples")
		}
		mc := r.Profile.Model
		mc.CondDim = 0
		model, err := core.NewModel(mc)
		if err != nil {
			return nil, err
		}
		r.logf("[fig10] combined model: %d samples across %d levels\n", len(ds), len(levels))
		if _, err := model.Train(ds, r.trainConfig("fig10-combined", r.Profile.EpochsAux, 4)); err != nil {
			return nil, err
		}
		return model, nil
	})
	if err != nil {
		return nil, err
	}

	// Standalone per-level models (explicit cache parameters, as in
	// the paper).
	standalone := make([]*core.Model, len(HierarchyConfigs))
	allLevels, err := r.levelSamples(train, true)
	if err != nil {
		return nil, err
	}
	for i := range HierarchyConfigs {
		i := i
		if len(allLevels[i]) == 0 {
			r.logf("[fig10] no in-regime L%d samples at this scale; skipping standalone model\n", i+1)
			continue
		}
		standalone[i], err = r.trainOrLoad(fmt.Sprintf("fig10-standalone-l%d", i+1), func() (*core.Model, error) {
			levels := allLevels
			model, err := core.NewModel(r.Profile.Model)
			if err != nil {
				return nil, err
			}
			r.logf("[fig10] standalone L%d model: %d samples\n", i+1, len(levels[i]))
			if _, err := model.Train(levels[i], r.trainConfig(fmt.Sprintf("fig10-standalone-l%d", i+1), r.Profile.EpochsAux, int64(5+i))); err != nil {
				return nil, err
			}
			return model, nil
		})
		if err != nil {
			return nil, err
		}
	}

	res := &Fig10Result{}
	markers := []string{"+", "*", "ø"} // the paper's exclusion markers per level
	// One pooled hierarchy simulation per test benchmark, shared by
	// every (level, variant) evaluation below.
	testTruths := r.truth().Hierarchy(context.Background(), test, HierarchyConfigs)
	for i, cfg := range HierarchyConfigs {
		variants := []struct {
			name  string
			model *core.Model
		}{{"combined", combined}, {"standalone", standalone[i]}}
		for _, v := range variants {
			variant, m := v.name, v.model
			if m == nil {
				r.logf("[fig10] %s model unavailable for L%d; skipped\n", variant, i+1)
				continue
			}
			cr := ConfigResult{Config: cfg}
			for bi, b := range test {
				trueHR, predHR, err := r.evalLevel(m, testTruths[bi], i)
				if err != nil {
					continue
				}
				name := b.Name
				row := BenchRow{Bench: name, TrueHit: trueHR, PredHit: predHR, AbsDiff: absPct(trueHR, predHR)}
				if trueHR < levelThresholds[i] {
					row.Excluded = true
					row.Bench = name + " " + markers[i]
				}
				cr.Rows = append(cr.Rows, row)
			}
			sortRows(cr.Rows)
			title := fmt.Sprintf("Figure 10 (RQ4): %s model, L%d %s", variant, i+1, cfg)
			cr.Average = r.renderRows(title, cr.Rows)
			if variant == "combined" {
				res.Combined = append(res.Combined, cr)
			} else {
				res.Standalone = append(res.Standalone, cr)
			}
		}
	}
	return res, nil
}
