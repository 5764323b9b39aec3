package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"cachebox/internal/nn"
	"cachebox/internal/tensor"
)

// splitModels are the two generators FuzzEvalSplitMatchesWhole runs:
// the tiny config without conditioning and with it. Their batch-norm
// running statistics are randomised, so eval batch norm is not the
// identity a fresh model's is.
var splitModels = sync.OnceValue(func() [2]*Model {
	var ms [2]*Model
	for i, condDim := range []int{0, 2} {
		cfg := tinyConfig()
		cfg.CondDim = condDim
		m, err := NewModel(cfg)
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(int64(40 + i)))
		for _, st := range m.G.State() {
			for j := range st.Value.Data {
				st.Value.Data[j] = float32(0.5 + rng.Float64())
			}
		}
		ms[i] = m
	}
	return ms
})

// evalBatch draws n random encoded access images and, for a
// conditioned model, n random condition vectors.
func evalBatch(m *Model, rng *rand.Rand, n int) (x, p *tensor.Tensor) {
	s := m.Cfg.ImageSize
	x = tensor.New(n, 1, s, s)
	for i := range x.Data {
		x.Data[i] = float32(rng.Float64()*2 - 1)
	}
	if m.Cfg.CondDim > 0 {
		p = tensor.New(n, m.Cfg.CondDim)
		for i := range p.Data {
			p.Data[i] = float32(rng.Float64())
		}
	}
	return x, p
}

func assertSameBits(t *testing.T, got, want *tensor.Tensor, label string) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: %d values, want %d", label, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: value %d is %v, want %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// FuzzEvalSplitMatchesWhole: an eval forward cut into any number of
// sample ranges, 1 to n, is bit-equal to the forward over the whole
// batch, for 1 to 9 random images on both configs. Every eval op is
// per sample, so a split that leaks one sample's values into another's
// rows, or one that drops or repeats a range, fails here.
func FuzzEvalSplitMatchesWhole(f *testing.F) {
	f.Add(uint8(0), int64(1), false)
	f.Add(uint8(4), int64(2), true)
	f.Add(uint8(8), int64(3), true)
	f.Add(uint8(6), int64(4), false)
	f.Fuzz(func(t *testing.T, nb uint8, seed int64, conditioned bool) {
		n := 1 + int(nb)%9
		m := splitModels()[0]
		if conditioned {
			m = splitModels()[1]
		}
		x, p := evalBatch(m, rand.New(rand.NewSource(seed)), n)
		whole := m.G.forward(x, p, false)
		assertSameBits(t, m.G.Forward(x, p, false), whole, fmt.Sprintf("Forward n=%d", n))
		for parts := 1; parts <= n; parts++ {
			got := m.G.forwardSplit(x, p, parts)
			assertSameBits(t, got, whole, fmt.Sprintf("n=%d split into %d", n, parts))
		}
	})
}

// TestConcurrentEvalForwards runs eval forwards from two goroutines on
// one generator whose weights were never packed, so both race to pack
// them, and checks every output against a serial forward of a second
// model with the same weights. Under -race it also checks that an eval
// forward writes no shared state.
func TestConcurrentEvalForwards(t *testing.T) {
	ref, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	type job struct{ x, p, want *tensor.Tensor }
	var jobs [2][rounds]job
	rng := rand.New(rand.NewSource(11))
	for g := range jobs {
		for r := range jobs[g] {
			x, p := evalBatch(ref, rng, 3+g+r)
			jobs[g][r] = job{x, p, ref.G.Forward(x, p, false)}
		}
	}
	var wg sync.WaitGroup
	got := [2][rounds]*tensor.Tensor{}
	for g := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r, j := range jobs[g] {
				got[g][r] = shared.G.Forward(j.x, j.p, false)
			}
		}()
	}
	wg.Wait()
	for g := range jobs {
		for r, j := range jobs[g] {
			assertSameBits(t, got[g][r], j.want, fmt.Sprintf("goroutine %d round %d", g, r))
		}
	}
}

// TestEvalPacksFollowWeightUpdates: after each way the generator's
// weights can change (an Adam step, Restore, and re-aliasing every
// parameter to another model's tensors), an eval forward equals one on
// a freshly built model holding the same weights. A conv layer that
// kept reading the panels it packed before the change fails it.
func TestEvalPacksFollowWeightUpdates(t *testing.T) {
	cfg := tinyConfig()
	rng := rand.New(rand.NewSource(12))
	fresh := func(seed int64) *Model {
		c := cfg
		c.Seed = seed
		m, err := NewModel(c)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	randomGrads := func(m *Model) {
		for _, p := range m.G.Params() {
			for i := range p.Grad.Data {
				p.Grad.Data[i] = float32(rng.NormFloat64())
			}
		}
	}
	updates := []struct {
		name   string
		update func(m *Model)
	}{
		{"Adam.Step", func(m *Model) { randomGrads(m); nn.NewAdam(m.G.Params(), 0.05).Step() }},
		{"Restore", func(m *Model) {
			if err := nn.Restore(nn.Snapshot(fresh(99).allState()), m.allState()); err != nil {
				t.Fatal(err)
			}
		}},
		{"re-alias", func(m *Model) {
			other := fresh(98)
			ox, op := evalBatch(other, rng, 2)
			other.G.Forward(ox, op, false) // other's own packs, over the tensors m takes
			for i, p := range m.G.Params() {
				p.Value = other.G.Params()[i].Value
			}
		}},
	}
	for _, u := range updates {
		m := fresh(cfg.Seed)
		x, p := evalBatch(m, rng, 4)
		before := m.G.Forward(x, p, false) // packs every conv weight
		u.update(m)
		got := m.G.Forward(x, p, false)
		same := fresh(cfg.Seed)
		if err := nn.Restore(nn.Snapshot(m.allState()), same.allState()); err != nil {
			t.Fatal(err)
		}
		want := same.G.Forward(x, p, false)
		assertSameBits(t, got, want, u.name)
		changed := false
		for i := range want.Data {
			changed = changed || want.Data[i] != before.Data[i]
		}
		if !changed {
			t.Fatalf("%s did not change the output; the test would not see a stale pack", u.name)
		}
	}
}
