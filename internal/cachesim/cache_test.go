package cachesim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{Sets: 64, Ways: 12}, true},
		{Config{Sets: 64, Ways: 12, BlockSize: 64}, true},
		{Config{Sets: 0, Ways: 12}, false},
		{Config{Sets: 63, Ways: 12}, false},
		{Config{Sets: 64, Ways: 0}, false},
		{Config{Sets: 64, Ways: 4, BlockSize: 48}, false},
		{Config{Sets: 64, Ways: 12, Policy: PolicyTreePLRU}, false}, // 12 not pow2
		{Config{Sets: 64, Ways: 8, Policy: PolicyTreePLRU}, true},
	}
	for i, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d (%+v): err = %v, want ok=%v", i, c.cfg, err, c.ok)
		}
	}
}

func TestConfigSizeAndString(t *testing.T) {
	cfg := Config{Sets: 64, Ways: 12}
	if cfg.SizeBytes() != 64*12*64 {
		t.Fatalf("SizeBytes = %d", cfg.SizeBytes())
	}
	if cfg.String() != "64set-12way" {
		t.Fatalf("String = %q", cfg.String())
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(Config{Sets: 4, Ways: 2})
	if c.Access(0x1000, false) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000, false) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1008, false) {
		t.Fatal("same-block access missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if got := s.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit rate = %v", got)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Direct-set 2-way cache: fill with A,B; touch A; insert C -> B evicted.
	c := New(Config{Sets: 1, Ways: 2})
	a, b, cc := uint64(0), uint64(64), uint64(128)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // A most recent
	c.Access(cc, false)
	if !c.Probe(a) {
		t.Fatal("A was evicted, want B")
	}
	if c.Probe(b) {
		t.Fatal("B still resident")
	}
	if !c.Probe(cc) {
		t.Fatal("C not resident")
	}
}

func TestFIFOEvictsOldestFill(t *testing.T) {
	c := New(Config{Sets: 1, Ways: 2, Policy: PolicyFIFO})
	a, b, cc := uint64(0), uint64(64), uint64(128)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // touching A must NOT save it under FIFO
	c.Access(cc, false)
	if c.Probe(a) {
		t.Fatal("FIFO kept A despite being oldest fill")
	}
	if !c.Probe(b) || !c.Probe(cc) {
		t.Fatal("B or C missing")
	}
}

func TestRandomPolicyDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []bool {
		c := New(Config{Sets: 1, Ways: 2, Policy: PolicyRandom, Seed: seed})
		rng := rand.New(rand.NewSource(99))
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, c.Access(uint64(rng.Intn(8))*64, false))
		}
		return out
	}
	a, b := run(1), run(1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different behaviour")
		}
	}
}

func TestTreePLRUBasic(t *testing.T) {
	c := New(Config{Sets: 1, Ways: 4, Policy: PolicyTreePLRU})
	blocks := []uint64{0, 64, 128, 192}
	for _, b := range blocks {
		c.Access(b, false)
	}
	for _, b := range blocks {
		if !c.Probe(b) {
			t.Fatalf("block %#x missing after fill", b)
		}
	}
	// Touch all but block 64; insert a new block; 64 should be the victim.
	c.Access(0, false)
	c.Access(128, false)
	c.Access(192, false)
	c.Access(256, false)
	if c.Probe(64) {
		t.Fatal("tree-PLRU did not evict the stale way")
	}
	if !c.Probe(256) {
		t.Fatal("new block not resident")
	}
}

func TestWritebackCounted(t *testing.T) {
	c := New(Config{Sets: 1, Ways: 1})
	c.Access(0, true)   // dirty fill
	c.Access(64, false) // evicts dirty line
	if got := c.Stats().Writebacks; got != 1 {
		t.Fatalf("writebacks = %d, want 1", got)
	}
	c.Access(128, false) // evicts clean line
	if got := c.Stats().Writebacks; got != 1 {
		t.Fatalf("writebacks = %d, want still 1", got)
	}
}

func TestResetClears(t *testing.T) {
	c := New(Config{Sets: 4, Ways: 2})
	c.Access(0, true)
	c.Reset()
	if c.Stats() != (Stats{}) {
		t.Fatalf("stats after reset = %+v", c.Stats())
	}
	if c.Probe(0) {
		t.Fatal("line survived reset")
	}
}

// refLRU is an oracle: a per-set stack (most recent first). A
// set-associative LRU cache hits iff the block's per-set stack
// distance is < ways.
type refLRU struct {
	sets map[uint64][]uint64
	ways int
	mask uint64
}

func newRefLRU(sets, ways int) *refLRU {
	return &refLRU{sets: map[uint64][]uint64{}, ways: ways, mask: uint64(sets - 1)}
}

func (r *refLRU) access(block uint64) bool {
	si := block & r.mask
	stack := r.sets[si]
	pos := -1
	for i, b := range stack {
		if b == block {
			pos = i
			break
		}
	}
	hit := pos >= 0 && pos < r.ways
	if pos >= 0 {
		stack = append(stack[:pos], stack[pos+1:]...)
	}
	stack = append([]uint64{block}, stack...)
	if len(stack) > r.ways {
		stack = stack[:r.ways]
	}
	r.sets[si] = stack
	return hit
}

// TestLRUMatchesStackDistanceOracle is the core validation of the
// ground-truth simulator: across random traces and geometries, every
// access's hit/miss must match the Mattson stack-distance model.
func TestLRUMatchesStackDistanceOracle(t *testing.T) {
	geoms := []Config{
		{Sets: 1, Ways: 4},
		{Sets: 4, Ways: 2},
		{Sets: 16, Ways: 12},
		{Sets: 64, Ways: 1},
	}
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range geoms {
		c := New(cfg)
		ref := newRefLRU(cfg.Sets, cfg.Ways)
		for i := 0; i < 20000; i++ {
			addr := uint64(rng.Intn(cfg.Sets*cfg.Ways*8)) * 64
			got := c.Access(addr, rng.Intn(4) == 0)
			want := ref.access(addr >> 6)
			if got != want {
				t.Fatalf("%s: access %d (%#x): sim=%v oracle=%v", cfg, i, addr, got, want)
			}
		}
	}
}

// Property: a fully-associative LRU cache with W ways hits exactly when
// fewer than W distinct blocks intervened since the last access.
func TestFullyAssociativeLRUProperty(t *testing.T) {
	f := func(seq []uint8, waysRaw uint8) bool {
		ways := int(waysRaw%7) + 1
		c := New(Config{Sets: 1, Ways: ways})
		ref := newRefLRU(1, ways)
		for _, b := range seq {
			if c.Access(uint64(b)*64, false) != ref.access(uint64(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingHitRateIsSevenEighths(t *testing.T) {
	// Sequential 8-byte accesses over a huge array: 7 of 8 accesses in
	// each 64B block hit, regardless of cache size.
	c := New(Config{Sets: 64, Ways: 12})
	const n = 64000
	for i := 0; i < n; i++ {
		c.Access(uint64(i)*8, false)
	}
	hr := c.Stats().HitRate()
	if hr < 0.874 || hr > 0.876 {
		t.Fatalf("streaming hit rate = %v, want 0.875", hr)
	}
}

func TestSmallFootprintAllHitsAfterWarm(t *testing.T) {
	c := New(Config{Sets: 64, Ways: 12}) // 48 KiB
	footprint := uint64(16 * 1024)       // fits easily
	var accesses, hits uint64
	rng := rand.New(rand.NewSource(3))
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < 4000; i++ {
			addr := uint64(rng.Intn(int(footprint)))
			hit := c.Access(addr, false)
			if pass > 0 {
				accesses++
				if hit {
					hits++
				}
			}
		}
	}
	if rate := float64(hits) / float64(accesses); rate < 0.999 {
		t.Fatalf("warm small-footprint hit rate = %v", rate)
	}
}

// TestCacheKeyCoversEveryField changes one field at a time, by
// reflection, so a field added to Config without a place in CacheKey
// fails here instead of aliasing two caches in a store.
func TestCacheKeyCoversEveryField(t *testing.T) {
	base := Config{Name: "L1D", Sets: 64, Ways: 12}
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		changed := base
		f := reflect.ValueOf(&changed).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		default:
			t.Fatalf("field %s: kind %s needs a case here and a place in CacheKey", rt.Field(i).Name, f.Kind())
		}
		if changed.CacheKey() == base.CacheKey() {
			t.Errorf("CacheKey ignores field %s", rt.Field(i).Name)
		}
	}
}
