// Package cachesim is a trace-driven architectural cache simulator in
// the role ChampSim plays in the paper: it produces the ground-truth
// hit/miss streams from which Real miss heatmaps are built.
//
// It models set-associative caches with configurable set count,
// associativity, block size, replacement policy (LRU, FIFO, Random,
// tree-PLRU) and write-allocate/write-back semantics; multi-level
// hierarchies (L1/L2/L3) where each level's input stream is the miss
// stream of the level above; and hardware prefetchers (next-line and
// stride) whose issued addresses can be captured for the paper's RQ7
// prefetcher-modelling experiment. The paper's ChampSim runs also use a
// bimodal branch predictor; it does not influence trace-driven cache
// behaviour, so none is modelled here.
package cachesim

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Config describes one cache level.
type Config struct {
	// Name labels the cache, e.g. "L1D".
	Name string
	// Sets is the number of sets; must be a power of two.
	Sets int
	// Ways is the associativity.
	Ways int
	// BlockSize is the line size in bytes; must be a power of two.
	// Zero defaults to 64, the paper's fixed block size.
	BlockSize uint64
	// Policy selects the replacement policy; zero value is LRU, the
	// paper's setting.
	Policy PolicyKind
	// Write selects write-back (default) or write-through behaviour.
	Write WritePolicy
	// Alloc selects write-allocate (default) or no-write-allocate.
	Alloc AllocPolicy
	// VictimLines, when positive, attaches a fully-associative victim
	// cache of that many lines (paper §6.3 future work).
	VictimLines int
	// Seed drives the Random policy.
	Seed int64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cachesim: sets must be a positive power of two, got %d", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cachesim: ways must be positive, got %d", c.Ways)
	}
	bs := c.BlockSize
	if bs == 0 {
		bs = 64
	}
	if bs&(bs-1) != 0 {
		return fmt.Errorf("cachesim: block size must be a power of two, got %d", bs)
	}
	if c.Policy == PolicyTreePLRU && c.Ways&(c.Ways-1) != 0 {
		return fmt.Errorf("cachesim: tree-PLRU requires power-of-two ways, got %d", c.Ways)
	}
	if c.VictimLines < 0 {
		return fmt.Errorf("cachesim: negative victim lines %d", c.VictimLines)
	}
	return nil
}

// SizeBytes returns the cache capacity in bytes.
func (c Config) SizeBytes() uint64 {
	bs := c.BlockSize
	if bs == 0 {
		bs = 64
	}
	return uint64(c.Sets) * uint64(c.Ways) * bs
}

// String renders the paper's "64set-12way" notation.
func (c Config) String() string {
	return fmt.Sprintf("%dset-%dway", c.Sets, c.Ways)
}

// ParseConfig parses the paper's "64set-12way" notation, the inverse of
// String: it accepts exactly the strings String prints for a geometry
// Validate passes, and leaves every other field at its default (LRU,
// 64-byte blocks).
func ParseConfig(s string) (Config, error) {
	sets, ways, _ := strings.Cut(s, "set-")
	ways, _ = strings.CutSuffix(ways, "way")
	n, serr := strconv.Atoi(sets)
	m, werr := strconv.Atoi(ways)
	c := Config{Sets: n, Ways: m}
	if serr != nil || werr != nil || c.String() != s {
		return Config{}, fmt.Errorf("cache config %q: want e.g. 64set-12way", s)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// CacheKey renders every field of the configuration, by name, for use
// as a memoisation key: two configurations share a key only if they
// simulate identically. String is for people and prints sets and ways
// alone, and %v of a Config calls it, so a cache keyed on either serves
// a FIFO cache's windows to the LRU cache of the same shape. Enumerated
// fields print as numbers so no String method can shadow them either.
func (c Config) CacheKey() string {
	return fmt.Sprintf("name=%q sets=%d ways=%d block=%d policy=%d write=%d alloc=%d victim=%d seed=%d",
		c.Name, c.Sets, c.Ways, c.BlockSize, int(c.Policy), int(c.Write), int(c.Alloc), c.VictimLines, c.Seed)
}

// Stats accumulates per-cache counters.
type Stats struct {
	Accesses     uint64 // demand accesses presented
	Hits         uint64 // demand hits
	Misses       uint64 // demand misses
	Writebacks   uint64 // dirty evictions
	PrefetchFill uint64 // lines installed by the prefetcher
	PrefetchHit  uint64 // demand hits on untouched prefetched lines
	VictimHits   uint64 // misses satisfied by the victim cache
	WriteThrus   uint64 // writes propagated by a write-through cache
}

// HitRate returns hits/accesses, or 0 for an idle cache.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// MissRate returns misses/accesses, or 0 for an idle cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag        uint64
	valid      bool
	dirty      bool
	prefetched bool // filled by prefetch and not yet demand-hit
	lastUse    uint64
	fillOrder  uint64
	rrpv       uint8 // SRRIP/DRRIP re-reference prediction value
}

type set struct {
	lines []line
	plru  uint64 // tree-PLRU state bits
}

// Cache is a single set-associative cache level.
type Cache struct {
	cfg       Config
	blockBits uint
	setMask   uint64
	sets      []set
	tick      uint64
	rng       *rand.Rand
	stats     Stats
	psel      int    // DRRIP policy-selection counter
	brripCtr  uint64 // BRRIP bimodal fill counter
	victim    *victimBuffer
	// Prefetcher, if non-nil, observes demand accesses and returns
	// block addresses to install.
	Prefetcher Prefetcher
	// OnEvict, if non-nil, is called with each block address that
	// leaves the cache entirely (used by inclusive hierarchies for
	// back-invalidation).
	OnEvict func(block uint64)
}

// New constructs a cache from cfg. It panics on an invalid
// configuration; use cfg.Validate to check first.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		//lint:ignore library-panic documented contract: New panics on invalid config, callers pre-check with cfg.Validate
		panic(err)
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 64
	}
	c := &Cache{
		cfg:     cfg,
		setMask: uint64(cfg.Sets - 1),
		sets:    make([]set, cfg.Sets),
		rng:     rand.New(rand.NewSource(cfg.Seed + 1)),
	}
	for bs := cfg.BlockSize; bs > 1; bs >>= 1 {
		c.blockBits++
	}
	for i := range c.sets {
		c.sets[i].lines = make([]line, cfg.Ways)
	}
	if cfg.VictimLines > 0 {
		c.victim = newVictimBuffer(cfg.VictimLines)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the cache's counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears all lines and counters, keeping the configuration.
func (c *Cache) Reset() {
	for i := range c.sets {
		for j := range c.sets[i].lines {
			c.sets[i].lines[j] = line{}
		}
		c.sets[i].plru = 0
	}
	c.tick = 0
	c.stats = Stats{}
	if c.victim != nil {
		c.victim = newVictimBuffer(c.cfg.VictimLines)
	}
}

// blockAddr strips the offset bits.
func (c *Cache) blockAddr(addr uint64) uint64 { return addr >> c.blockBits }

func (c *Cache) setIndex(block uint64) uint64 { return block & c.setMask }

// Access presents a demand access and returns whether it hit. On a
// miss the block is installed (write-allocate); writes mark the line
// dirty (write-back). If a prefetcher is attached, it observes the
// access and its prefetches are installed immediately.
func (c *Cache) Access(addr uint64, write bool) bool {
	c.tick++
	block := c.blockAddr(addr)
	c.stats.Accesses++
	if write && c.cfg.Write == WriteThrough {
		c.stats.WriteThrus++
	}
	hit := c.touch(block, write)
	if !hit && c.victim != nil {
		if ln, ok := c.victim.take(block); ok {
			// Victim hit: swap the block back into the main array.
			c.stats.VictimHits++
			way := c.fill(block, write, false)
			s := &c.sets[c.setIndex(block)]
			if ln.dirty {
				s.lines[way].dirty = true
			}
			hit = true
		}
	}
	if hit {
		c.stats.Hits++
	} else {
		c.stats.Misses++
		if c.cfg.Policy == PolicyDRRIP {
			c.duelOnMiss(c.setIndex(block))
		}
		if !(write && c.cfg.Alloc == NoWriteAllocate) {
			c.fill(block, write, false)
		}
	}
	if c.Prefetcher != nil {
		for _, pb := range c.Prefetcher.Observe(block, hit) {
			c.prefetchFill(pb)
		}
	}
	return hit
}

// AccessNoFill presents a demand access that does not allocate on a
// miss — the lookup mode exclusive hierarchies use for lower levels.
// Statistics are counted normally.
func (c *Cache) AccessNoFill(addr uint64, write bool) bool {
	c.tick++
	block := c.blockAddr(addr)
	c.stats.Accesses++
	hit := c.touch(block, write)
	if !hit && c.victim != nil {
		if ln, ok := c.victim.take(block); ok {
			c.stats.VictimHits++
			way := c.fill(block, write, false)
			s := &c.sets[c.setIndex(block)]
			if ln.dirty {
				s.lines[way].dirty = true
			}
			hit = true
		}
	}
	if hit {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	return hit
}

// InsertBlock installs the block containing addr without touching the
// demand counters — how exclusive hierarchies place blocks evicted
// from the level above. No-op if already resident.
func (c *Cache) InsertBlock(addr uint64, dirty bool) {
	block := c.blockAddr(addr)
	s := &c.sets[c.setIndex(block)]
	for i := range s.lines {
		if s.lines[i].valid && s.lines[i].tag == block {
			if dirty && c.cfg.Write == WriteBack {
				s.lines[i].dirty = true
			}
			return
		}
	}
	c.tick++
	way := c.fill(block, false, false)
	if dirty && c.cfg.Write == WriteBack {
		s.lines[way].dirty = true
	}
}

// Probe reports whether the block containing addr is resident, without
// updating any replacement or statistics state.
func (c *Cache) Probe(addr uint64) bool {
	block := c.blockAddr(addr)
	s := &c.sets[c.setIndex(block)]
	for i := range s.lines {
		if s.lines[i].valid && s.lines[i].tag == block {
			return true
		}
	}
	return false
}

// touch looks the block up and updates replacement state on a hit.
func (c *Cache) touch(block uint64, write bool) bool {
	s := &c.sets[c.setIndex(block)]
	for i := range s.lines {
		ln := &s.lines[i]
		if ln.valid && ln.tag == block {
			if ln.prefetched {
				c.stats.PrefetchHit++
				ln.prefetched = false
			}
			ln.lastUse = c.tick
			if write && c.cfg.Write == WriteBack {
				ln.dirty = true
			}
			c.updatePLRU(s, i)
			if c.cfg.Policy == PolicySRRIP || c.cfg.Policy == PolicyDRRIP {
				c.rripOnHit(ln)
			}
			return true
		}
	}
	return false
}

// fill installs block, evicting per policy. Returns the way filled.
func (c *Cache) fill(block uint64, write, prefetched bool) int {
	s := &c.sets[c.setIndex(block)]
	victim := c.victimWay(s)
	ln := &s.lines[victim]
	if ln.valid {
		c.evictLine(*ln)
	}
	*ln = line{
		tag:        block,
		valid:      true,
		dirty:      write && c.cfg.Write == WriteBack,
		prefetched: prefetched,
		lastUse:    c.tick,
		fillOrder:  c.tick,
	}
	if c.cfg.Policy == PolicySRRIP || c.cfg.Policy == PolicyDRRIP {
		ln.rrpv = c.rripInsertionRRPV(c.setIndex(block))
	}
	c.updatePLRU(s, victim)
	return victim
}

// evictLine retires a valid line: into the victim buffer when one is
// attached, otherwise out of the cache (counting a writeback for dirty
// write-back lines and notifying OnEvict).
func (c *Cache) evictLine(ln line) {
	if c.victim != nil {
		displaced, had := c.victim.insert(ln)
		if !had {
			return
		}
		ln = displaced
	}
	if ln.dirty {
		c.stats.Writebacks++
	}
	if c.OnEvict != nil {
		c.OnEvict(ln.tag)
	}
}

// Invalidate drops the block containing addr if resident (including
// the victim buffer), without writeback accounting — the hierarchy's
// back-invalidation primitive. It reports whether a copy was dropped.
func (c *Cache) Invalidate(addr uint64) bool {
	block := c.blockAddr(addr)
	s := &c.sets[c.setIndex(block)]
	for i := range s.lines {
		if s.lines[i].valid && s.lines[i].tag == block {
			s.lines[i] = line{}
			return true
		}
	}
	if c.victim != nil {
		if _, ok := c.victim.take(block); ok {
			return true
		}
	}
	return false
}

// ResidentBlocks returns the block addresses currently held (main
// array and victim buffer), for invariant checks and debugging.
func (c *Cache) ResidentBlocks() []uint64 {
	var out []uint64
	for i := range c.sets {
		for _, ln := range c.sets[i].lines {
			if ln.valid {
				out = append(out, ln.tag)
			}
		}
	}
	if c.victim != nil {
		for _, ln := range c.victim.lines {
			if ln.valid {
				out = append(out, ln.tag)
			}
		}
	}
	return out
}

// prefetchFill installs a block speculatively if it is not already
// resident. Prefetch fills do not count as demand accesses.
func (c *Cache) prefetchFill(block uint64) {
	s := &c.sets[c.setIndex(block)]
	for i := range s.lines {
		if s.lines[i].valid && s.lines[i].tag == block {
			return // already resident
		}
	}
	c.stats.PrefetchFill++
	c.fill(block, false, true)
}

// victimWay picks the way to evict in s per the configured policy,
// preferring invalid ways.
func (c *Cache) victimWay(s *set) int {
	for i := range s.lines {
		if !s.lines[i].valid {
			return i
		}
	}
	switch c.cfg.Policy {
	case PolicySRRIP, PolicyDRRIP:
		return c.rripVictim(s)
	case PolicyLRU:
		best, bestUse := 0, s.lines[0].lastUse
		for i := 1; i < len(s.lines); i++ {
			if s.lines[i].lastUse < bestUse {
				best, bestUse = i, s.lines[i].lastUse
			}
		}
		return best
	case PolicyFIFO:
		best, bestFill := 0, s.lines[0].fillOrder
		for i := 1; i < len(s.lines); i++ {
			if s.lines[i].fillOrder < bestFill {
				best, bestFill = i, s.lines[i].fillOrder
			}
		}
		return best
	case PolicyRandom:
		return c.rng.Intn(len(s.lines))
	case PolicyTreePLRU:
		return c.plruVictim(s)
	default:
		//lint:ignore library-panic unreachable: Validate rejects unknown policies at construction
		panic(fmt.Sprintf("cachesim: unknown policy %d", c.cfg.Policy))
	}
}

// updatePLRU flips the tree bits on the path to way so the path points
// away from it (only meaningful under PolicyTreePLRU).
func (c *Cache) updatePLRU(s *set, way int) {
	if c.cfg.Policy != PolicyTreePLRU {
		return
	}
	ways := len(s.lines)
	node := 1
	for span := ways; span > 1; span /= 2 {
		half := span / 2
		bit := uint64(1) << uint(node)
		if way < half {
			s.plru |= bit // point right, away from the touched left half
			node = node * 2
		} else {
			s.plru &^= bit // point left
			node = node*2 + 1
			way -= half
		}
	}
}

// plruVictim follows the tree bits to the pseudo-LRU way.
func (c *Cache) plruVictim(s *set) int {
	ways := len(s.lines)
	node := 1
	base := 0
	for span := ways; span > 1; span /= 2 {
		half := span / 2
		bit := uint64(1) << uint(node)
		if s.plru&bit != 0 {
			// Points right.
			base += half
			node = node*2 + 1
		} else {
			node = node * 2
		}
	}
	return base
}
