package core

import (
	"context"
	"fmt"

	"cachebox/internal/nn"
	"cachebox/internal/obs"
	"cachebox/internal/par"
	"cachebox/internal/tensor"
)

// trainer runs every optimiser step of CB-GAN's adversarial loop
// (paper Fig. 6, Eq. 1–2): one D update, then one G update, on each
// batch. The batch is split into a fixed number of gradient shards
// executed on an internal/par pool. The design follows the
// repository's commit discipline (PR 4/PR 9): shard boundaries and all
// floating-point reduction orders are functions of the shard count
// alone, workers only decide which goroutine computes a shard, so the
// trained model is byte-identical at any worker count.
//
// Each shard owns a full model replica whose trainable params share
// the main model's (nn.Param.Share: layers read weights through
// *Param, so sharing the value tensor shares the weights), while
// gradients, activation caches and batch-norm running statistics stay
// replica-private. Only the Adam steps mutate weights, between the
// parallel phases, so replicas always see the current weights without
// any copying. A conv weight's packed GEMM forms belong to the main
// param too: the trainer packs each one once per weight version, before
// the phase that reads it, and every replica reads that one pack.
//
// Per-step flow:
//
//	pack G and D conv weights, W and Wᵀ, where stale (all cores)
//	phase D (parallel): encode shard, G forward, D real+fake
//	  forward/backward into replica grads
//	reduce D grads in shard-index order → optD.Step() (all cores)
//	pack D conv weights (all cores)
//	phase G (parallel): D forward on (x, fake), backprop to the fake,
//	  add λ·L1 grad, G backward into replica grads
//	reduce G grads in shard-index order → optG.Step() (all cores)
//	commit batch-norm running stats in shard-index order (serial)
//
// The reduction and the Adam steps are elementwise, so they run over
// element ranges (nn.ForEachRange) with the bytes of a serial pass, and
// a pack holds exactly the values the GEMM would gather per tile.
//
// Dropout masks cannot come from the per-layer RNG streams (a shard
// would need to know how many draws earlier shards made), so each
// replica's dropout layers are reseeded per step from
// mix64(seed, step, shard, layer) — a pure function of the step
// coordinates that is worker-count-independent and O(1) to restore on
// resume. The main model's dropout cursors are unused at more than one
// shard and checkpoint as zero.
//
// At one shard the single replica is the main model itself (solo), the
// pool is one wide and the phases run inline.
type trainer struct {
	m      *Model
	shards int
	pool   par.Pool
	seed   int64
	reps   []*trainReplica

	// mainG/mainD are the main model's trainable parameters — the
	// reduction targets. mainState pairs with each replica's state list:
	// the batch-norm running statistics.
	mainG, mainD []*nn.Param
	mainState    []*nn.Param
	// convs holds the main model's conv weights, G's then D's, and
	// convD is its D tail: the params whose packs the replicas read.
	convs, convD []*nn.Param
}

// trainReplica is one shard's private training context.
type trainReplica struct {
	m *Model
	// gParams/dParams are the replica's trainable parameters in the
	// same deterministic order as the main model's; their Value tensors
	// alias the main model's, their Grad tensors are private.
	gParams, dParams []*nn.Param
	// state is the replica's batch-norm running statistics (private
	// tensors, synced from the main model each step and committed back
	// in shard order).
	state []*nn.Param
	// drops are the replica generator's dropout layers, reseeded per
	// (step, shard, layer).
	drops []*nn.Dropout

	// Per-step shard context carried across the serial barrier between
	// the D and G phases.
	x, y, p, fake    *tensor.Tensor
	weight           float64
	dLoss, gAdv, gL1 float64
	finite           bool
}

// newTrainer builds one replica per shard; at one shard the replica is
// m itself. workers <= 0 selects one worker per shard.
func newTrainer(m *Model, shards, workers int, seed int64) (*trainer, error) {
	if shards < 1 {
		return nil, fmt.Errorf("core: trainer needs >= 1 shard, got %d", shards)
	}
	if workers <= 0 || workers > shards {
		workers = shards
	}
	t := &trainer{
		m:      m,
		shards: shards,
		pool:   par.New(workers),
		seed:   seed,
		mainG:  m.G.Params(),
		mainD:  m.D.Params(),
	}
	dConvs := m.D.convWeights()
	t.convs = append(m.G.convWeights(), dConvs...)
	t.convD = t.convs[len(t.convs)-len(dConvs):]
	t.mainState = append(t.mainState, m.G.State()...)
	t.mainState = append(t.mainState, m.D.State()...)
	if shards == 1 {
		t.reps = []*trainReplica{{m: m, gParams: t.mainG, dParams: t.mainD}}
		return t, nil
	}
	for s := 0; s < shards; s++ {
		rm, err := NewModel(m.Cfg)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d replica: %w", s, err)
		}
		rep := &trainReplica{
			m:       rm,
			gParams: rm.G.Params(),
			dParams: rm.D.Params(),
			drops:   rm.G.Dropouts(),
		}
		rep.state = append(rep.state, rm.G.State()...)
		rep.state = append(rep.state, rm.D.State()...)
		if err := aliasParams(rep.gParams, t.mainG); err != nil {
			return nil, fmt.Errorf("core: shard %d generator: %w", s, err)
		}
		if err := aliasParams(rep.dParams, t.mainD); err != nil {
			return nil, fmt.Errorf("core: shard %d discriminator: %w", s, err)
		}
		if len(rep.state) != len(t.mainState) {
			return nil, fmt.Errorf("core: shard %d has %d state tensors, main model has %d",
				s, len(rep.state), len(t.mainState))
		}
		t.reps = append(t.reps, rep)
	}
	return t, nil
}

// solo reports whether the one replica is the main model itself (one
// shard). Each phase that only keeps replicas apart is then skipped,
// and each skip keeps the bytes: no Share and no gradient reduction
// (the replica's grads are the main grads; a clear-then-add would zero
// them), no batch-norm sync or commit (its running statistics are the
// main ones), no dropout reseed (its layers keep their seeded streams,
// which checkpoints record as cursors) and no pack ahead (one forward
// and one backward per weight version do not pay for a pack).
func (t *trainer) solo() bool { return t.reps[0].m == t.m }

// aliasParams makes each replica parameter share the main model's
// (nn.Param.Share), so the replica reads the one set of weights the
// optimiser writes, and the packs the trainer builds of them. Gradient
// tensors are left private.
func aliasParams(reps, mains []*nn.Param) error {
	if len(reps) != len(mains) {
		return fmt.Errorf("core: replica has %d params, main model has %d", len(reps), len(mains))
	}
	for i, rp := range reps {
		mp := mains[i]
		if rp.Name != mp.Name || rp.Value.Len() != mp.Value.Len() {
			return fmt.Errorf("core: replica param %d is %s[%d], main model has %s[%d]",
				i, rp.Name, rp.Value.Len(), mp.Name, mp.Value.Len())
		}
		rp.Share(mp)
	}
	return nil
}

// mix64 is the splitmix64 finaliser: a bijective avalanche over 64
// bits, used to derive independent dropout seeds from step coordinates.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// dropoutSeed derives the dropout RNG seed for one (step, shard,
// layer) coordinate. Chained mixing keeps the coordinates from
// cancelling (unlike a plain xor of the raw values).
func dropoutSeed(seed int64, step, shard, layer int) int64 {
	h := mix64(uint64(seed) + 0x9e3779b97f4a7c15)
	h = mix64(h + uint64(step))
	h = mix64(h + uint64(shard))
	h = mix64(h + uint64(layer))
	return int64(h)
}

// shardRanges splits n samples into the trainer's shards: contiguous,
// near-equal, the first n%shards shards one larger. The split depends
// only on (n, shards), never on workers.
func (t *trainer) shardRanges(n int) [][2]int {
	out := make([][2]int, t.shards)
	base, rem := n/t.shards, n%t.shards
	lo := 0
	for s := range out {
		k := base
		if s < rem {
			k++
		}
		out[s] = [2]int{lo, lo + k}
		lo += k
	}
	return out
}

// step runs one optimiser step, step being its index in the run.
// Losses are the shard-weighted means (weight = shard samples / batch
// samples), which reproduces the whole-batch mean for both the loss
// scalars and the reduced gradients. ok is false when a non-finite
// loss made the step unsafe, as a GAN occasionally spikes: a
// non-finite D phase skips the whole step before optD runs; a
// non-finite G phase skips only the G update (D already stepped). err
// reports infrastructure failures (a panicking shard, as a
// *par.PanicError), which abort training.
func (t *trainer) step(ctx context.Context, batch []Sample, step int, optG, optD *nn.Adam) (dLoss, gAdv, gL1 float64, ok bool, err error) {
	stepCtx, stepSpan := obs.Start(ctx, "train.step")
	stepSpan.TagInt("batch", len(batch))
	stepSpan.TagInt("shards", t.shards)
	defer stepSpan.End()

	ranges := t.shardRanges(len(batch))
	// active lists the non-empty shards in index order; a tail batch
	// smaller than the shard count leaves the rest idle.
	var active []int
	for s, r := range ranges {
		if r[1] > r[0] {
			active = append(active, s)
		}
	}

	advLoss := nn.BCEWithLogits
	if t.m.Cfg.LSGAN {
		advLoss = nn.MSELoss
	}

	// --- Phase D (parallel): per-shard G forward + D real/fake update
	// (Pix2Pix halves each adversarial term).
	if err := t.packWeights(stepCtx, t.convs); err != nil {
		return 0, 0, 0, false, err
	}
	err = t.pool.Run(stepCtx, len(active), func(ctx context.Context, i int) error {
		s := active[i]
		rep, r := t.reps[s], ranges[s]
		sub := batch[r[0]:r[1]]
		rep.weight = float64(len(sub)) / float64(len(batch))
		if !t.solo() {
			// Replicas start each step from the main model's running
			// statistics, so the committed momentum updates chain
			// exactly like a one-shard run's.
			for j, st := range rep.state {
				copy(st.Value.Data, t.mainState[j].Value.Data)
			}
			for li, d := range rep.drops {
				d.Reseed(dropoutSeed(t.seed, step, s, li))
			}
		}
		rep.x = rep.m.CodecX.EncodeBatch(collectAccess(sub))
		rep.y = rep.m.CodecY.EncodeBatch(collectMiss(sub))
		rep.p = rep.m.paramsTensor(sub)
		_, sp := obs.Start(ctx, "train.g_forward")
		rep.fake = rep.m.G.Forward(rep.x, rep.p, true)
		sp.End()

		nn.ZeroGrads(rep.dParams)
		_, sp = obs.Start(ctx, "train.d_forward")
		logitsReal := rep.m.D.Forward(rep.x, rep.y, true)
		sp.End()
		ones := tensor.New(logitsReal.Shape...)
		ones.Fill(1)
		lossReal, dReal := advLoss(logitsReal, ones)
		dReal.Scale(0.5)
		_, sp = obs.Start(ctx, "train.d_backward")
		rep.m.D.Backward(dReal)
		sp.End()

		_, sp = obs.Start(ctx, "train.d_forward")
		logitsFake := rep.m.D.Forward(rep.x, rep.fake.Clone(), true) // detached copy
		sp.End()
		zeros := tensor.New(logitsFake.Shape...)
		lossFake, dFake := advLoss(logitsFake, zeros)
		dFake.Scale(0.5)
		_, sp = obs.Start(ctx, "train.d_backward")
		rep.m.D.Backward(dFake)
		sp.End()
		rep.dLoss = (lossReal + lossFake) / 2
		rep.finite = isFinite(rep.dLoss)
		return nil
	})
	if err != nil {
		return 0, 0, 0, false, fmt.Errorf("core: training D phase: %w", err)
	}

	ok = true
	for _, s := range active {
		rep := t.reps[s]
		dLoss += float64(rep.weight * rep.dLoss)
		ok = ok && rep.finite
	}
	if !ok || !isFinite(dLoss) {
		// Skip: no D step, no G phase. The forwards that did run still
		// advanced the running statistics, and the commit carries the
		// replicas' advance to the main model.
		t.commitState(active)
		return 0, 0, 0, false, nil
	}
	t.reduceGrads(t.mainD, active, func(r *trainReplica) []*nn.Param { return r.dParams })
	optD.Step()

	// --- Phase G (parallel): the replicas' aliased weights already see
	// the D step above; their packs are rebuilt from it here. G has not
	// moved since phase D, so its packs are current.
	if err := t.packWeights(stepCtx, t.convD); err != nil {
		return 0, 0, 0, false, err
	}
	err = t.pool.Run(stepCtx, len(active), func(ctx context.Context, i int) error {
		s := active[i]
		rep, r := t.reps[s], ranges[s]
		sub := batch[r[0]:r[1]]
		nn.ZeroGrads(rep.gParams)
		nn.ZeroGrads(rep.dParams)
		_, sp := obs.Start(ctx, "train.d_forward")
		logitsG := rep.m.D.Forward(rep.x, rep.fake, true)
		sp.End()
		onesG := tensor.New(logitsG.Shape...)
		onesG.Fill(1)
		gAdvS, dLogitsG := advLoss(logitsG, onesG)
		_, sp = obs.Start(ctx, "train.d_backward")
		_, dFakeFromD := rep.m.D.Backward(dLogitsG)
		sp.End()
		// The D pass above accumulated gradients we must not apply.
		nn.ZeroGrads(rep.dParams)

		var gL1S float64
		var dL1 *tensor.Tensor
		if w := batchWeights(sub); w != nil {
			// Representative-sampled datasets (internal/sampling)
			// weight each window by the share of its cluster; only the
			// L1 reconstruction term is weighted — the adversarial
			// terms keep judging every sample equally.
			gL1S, dL1 = nn.WeightedL1Loss(rep.fake, rep.y, w)
		} else {
			gL1S, dL1 = nn.L1Loss(rep.fake, rep.y)
		}
		dL1.Scale(float32(t.m.Cfg.Lambda))
		dFakeTotal := dFakeFromD
		dFakeTotal.AddInPlace(dL1)
		rep.gAdv, rep.gL1 = gAdvS, gL1S
		rep.finite = isFinite(gAdvS) && isFinite(gL1S) && dFakeTotal.IsFinite()
		if rep.finite {
			_, sp = obs.Start(ctx, "train.g_backward")
			rep.m.G.Backward(dFakeTotal)
			sp.End()
		}
		return nil
	})
	if err != nil {
		return 0, 0, 0, false, fmt.Errorf("core: training G phase: %w", err)
	}

	ok = true
	for _, s := range active {
		rep := t.reps[s]
		gAdv += float64(rep.weight * rep.gAdv)
		gL1 += float64(rep.weight * rep.gL1)
		ok = ok && rep.finite
	}
	if !ok || !isFinite(gAdv) || !isFinite(gL1) {
		// Skip the G update only: D already stepped.
		t.commitState(active)
		return 0, 0, 0, false, nil
	}
	t.reduceGrads(t.mainG, active, func(r *trainReplica) []*nn.Param { return r.gParams })
	optG.Step()
	t.commitState(active)
	return dLoss, gAdv, gL1, true, nil
}

// packWeights brings the packs of the conv weights ws up to their
// current versions, one weight per task on the trainer's pool, so the
// next phase's replicas read packed weights instead of packing them
// per tile. A pack that is current is left alone. A solo trainer packs
// nothing: its layers pack per tile as they run.
func (t *trainer) packWeights(ctx context.Context, ws []*nn.Param) error {
	if t.solo() {
		return nil
	}
	err := t.pool.Run(ctx, len(ws), func(_ context.Context, i int) error {
		ws[i].PackForms()
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: packing weights: %w", err)
	}
	return nil
}

// reduceGrads accumulates the replicas' shard-mean gradients into the
// main model's gradient tensors in strict shard-index order:
// main.Grad = Σ_s weight_s · rep_s.Grad. Because every loss is a mean
// over its shard, the weighted sum reproduces the whole-batch mean
// gradient; the fixed order makes the float32 rounding deterministic.
// Each element's sum is independent of every other's, so element
// ranges run on the trainer's pool. The product is rounded before its
// add (float32(…)), so no architecture may fuse the two. A solo
// replica's grads are the main grads already (clearing them here would
// zero them).
func (t *trainer) reduceGrads(mains []*nn.Param, active []int, grads func(*trainReplica) []*nn.Param) {
	if t.solo() {
		return
	}
	nn.ForEachRange(mains, t.pool.Workers(), func(j, lo, hi int) {
		dst := mains[j].Grad.Data[lo:hi]
		clear(dst)
		for _, s := range active {
			rep := t.reps[s]
			w := float32(rep.weight)
			for k, g := range grads(rep)[j].Grad.Data[lo:hi] {
				dst[k] += float32(w * g)
			}
		}
	})
}

// commitState folds the replicas' batch-norm running statistics back
// into the main model as the shard-weighted mean, in shard-index
// order. Each replica started the step from the main model's values,
// so the commit is exactly one momentum update over the shard-weighted
// batch statistics. A solo replica updated the main statistics in
// place. The product is rounded before its add, as in reduceGrads.
func (t *trainer) commitState(active []int) {
	if t.solo() {
		return
	}
	for j, mainSt := range t.mainState {
		dst := mainSt.Value.Data
		clear(dst)
		for _, s := range active {
			w := float32(t.reps[s].weight)
			for k, v := range t.reps[s].state[j].Value.Data {
				dst[k] += float32(w * v)
			}
		}
	}
}
