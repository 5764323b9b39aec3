package cachesim

import (
	"testing"
)

func TestNextLinePrefetcherTurnsStreamIntoHits(t *testing.T) {
	// Sequential block-granular accesses over a huge region: without
	// prefetch every access misses; with next-line almost all hit.
	run := func(pf Prefetcher) float64 {
		c := New(Config{Sets: 64, Ways: 12})
		c.Prefetcher = pf
		for i := 0; i < 20000; i++ {
			c.Access(uint64(i)*64, false)
		}
		return c.Stats().HitRate()
	}
	base := run(nil)
	pref := run(&NextLinePrefetcher{})
	if base != 0 {
		t.Fatalf("baseline hit rate = %v, want 0", base)
	}
	if pref < 0.99 {
		t.Fatalf("next-line hit rate = %v, want ~1", pref)
	}
}

func TestNextLineOnMissOnly(t *testing.T) {
	p := &NextLinePrefetcher{OnMissOnly: true}
	if got := p.Observe(10, true); len(got) != 0 {
		t.Fatalf("prefetch on hit: %v", got)
	}
	if got := p.Observe(10, false); len(got) != 1 || got[0] != 11 {
		t.Fatalf("prefetch on miss: %v", got)
	}
	if p.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestStridePrefetcherDetectsStride(t *testing.T) {
	p := &StridePrefetcher{Degree: 2}
	var got []uint64
	// Blocks 0, 3, 6, 9, 12 within one region: stride 3.
	for _, b := range []uint64{0, 3, 6, 9, 12} {
		got = p.Observe(b, false)
	}
	if len(got) != 2 || got[0] != 15 || got[1] != 18 {
		t.Fatalf("stride prefetches = %v, want [15 18]", got)
	}
}

func TestStridePrefetcherIgnoresRandom(t *testing.T) {
	p := &StridePrefetcher{}
	seq := []uint64{5, 1, 9, 2, 60, 17, 33, 8}
	issued := 0
	for _, b := range seq {
		issued += len(p.Observe(b, false))
	}
	if issued != 0 {
		t.Fatalf("random stream triggered %d prefetches", issued)
	}
}

func TestStridePrefetcherRegionEviction(t *testing.T) {
	p := &StridePrefetcher{MaxRegions: 2}
	// Touch 3 regions; the first must be evicted.
	p.Observe(0<<6, false)
	p.Observe(1<<6, false)
	p.Observe(2<<6, false)
	if len(p.regions) > 2 {
		t.Fatalf("regions = %d, want <= 2", len(p.regions))
	}
	if _, ok := p.regions[0]; ok {
		t.Fatal("oldest region not evicted")
	}
}

func TestStridePrefetcherNegativeStride(t *testing.T) {
	p := &StridePrefetcher{Degree: 1}
	var got []uint64
	for _, b := range []uint64{100, 98, 96, 94} {
		got = p.Observe(b, false)
	}
	if len(got) != 1 || got[0] != 92 {
		t.Fatalf("negative stride prefetch = %v, want [92]", got)
	}
	// Never emit below zero.
	p2 := &StridePrefetcher{Degree: 4}
	for _, b := range []uint64{6, 4, 2} {
		got = p2.Observe(b, false)
	}
	for _, b := range got {
		if int64(b) < 0 {
			t.Fatalf("prefetch below zero: %v", got)
		}
	}
}

func TestRecordingPrefetcherCapturesIC(t *testing.T) {
	rec := &RecordingPrefetcher{Inner: &NextLinePrefetcher{}}
	rec.SetIC(30)
	rec.Observe(7, false)
	rec.SetIC(33)
	rec.Observe(9, true)
	if len(rec.Records) != 2 {
		t.Fatalf("records = %d", len(rec.Records))
	}
	if rec.Records[0] != (PrefetchRecord{Block: 8, IC: 30}) {
		t.Fatalf("record 0 = %+v", rec.Records[0])
	}
	if rec.Records[1] != (PrefetchRecord{Block: 10, IC: 33}) {
		t.Fatalf("record 1 = %+v", rec.Records[1])
	}
}

func TestPrefetchStatsAccounted(t *testing.T) {
	c := New(Config{Sets: 64, Ways: 12})
	c.Prefetcher = &NextLinePrefetcher{}
	for i := 0; i < 1000; i++ {
		c.Access(uint64(i)*64, false)
	}
	s := c.Stats()
	if s.PrefetchFill == 0 {
		t.Fatal("no prefetch fills recorded")
	}
	if s.PrefetchHit == 0 {
		t.Fatal("no prefetch hits recorded")
	}
	if s.PrefetchHit > s.PrefetchFill {
		t.Fatalf("prefetch hits (%d) exceed fills (%d)", s.PrefetchHit, s.PrefetchFill)
	}
}

func TestPrefetchFillDoesNotDoubleInstall(t *testing.T) {
	c := New(Config{Sets: 1, Ways: 2})
	c.Access(0, false) // installs block 0, prefetches nothing (no pf)
	c.Prefetcher = &NextLinePrefetcher{}
	c.Access(64, false) // installs block 1, prefetches block 2
	c.Access(0, false)  // hit; prefetches block 1 (already resident, no-op)
	s := c.Stats()
	if s.PrefetchFill != 1 {
		t.Fatalf("prefetch fills = %d, want 1 (block 2 only)", s.PrefetchFill)
	}
}
