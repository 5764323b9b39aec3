// Package simpoint implements SimPoint-style phase analysis (Sherwood
// et al., ASPLOS'02), the targeted-sampling technique the paper cites
// as the classical way to accelerate architectural simulation: a trace
// is cut into fixed-size intervals, each interval is summarised by a
// signature vector (here, a basic-block-vector analogue built from
// block-address activity), the signatures are clustered with k-means,
// and one representative interval per cluster is simulated in place of
// the whole program.
//
// CacheBox-Go uses it as an optional data-reduction step in front of
// the heatmap pipeline, and as a reference point for the paper's
// discussion of sampled simulation.
package simpoint

import (
	"fmt"
	"math"
	"math/rand"

	"cachebox/internal/trace"
)

// Config controls phase analysis.
type Config struct {
	// IntervalLen is the number of accesses per interval (SimPoint
	// uses instruction counts; accesses are proportional here).
	IntervalLen int
	// SignatureDim is the dimensionality of interval signatures
	// (block addresses are hashed into this many buckets).
	SignatureDim int
	// K is the number of phases (clusters). Zero picks
	// min(8, intervals).
	K int
	// MaxIter bounds k-means iterations.
	MaxIter int
	// Seed drives centroid initialisation.
	Seed int64
}

// DefaultConfig returns sensible analysis defaults.
func DefaultConfig() Config {
	return Config{IntervalLen: 10000, SignatureDim: 64, K: 0, MaxIter: 50, Seed: 1}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.IntervalLen <= 0 {
		return fmt.Errorf("simpoint: interval length must be positive, got %d", c.IntervalLen)
	}
	if c.SignatureDim <= 0 {
		return fmt.Errorf("simpoint: signature dimension must be positive, got %d", c.SignatureDim)
	}
	if c.K < 0 {
		return fmt.Errorf("simpoint: negative k %d", c.K)
	}
	return nil
}

// Interval is one trace slice with its signature.
type Interval struct {
	// Index is the interval's position in the trace.
	Index int
	// Lo, Hi bound the accesses [Lo, Hi) of the interval.
	Lo, Hi int
	// Signature is the normalised activity vector.
	Signature []float64
	// Phase is the cluster the interval was assigned to.
	Phase int
}

// Phases is the result of an analysis.
type Phases struct {
	Config    Config
	Intervals []Interval
	// Representatives holds, per phase, the index (into Intervals) of
	// the interval closest to the phase centroid — the "simulation
	// point".
	Representatives []int
	// Weights holds, per phase, the fraction of intervals it covers.
	Weights []float64
}

// Analyze cuts t into intervals, builds signatures and clusters them.
func Analyze(t *trace.Trace, cfg Config) (*Phases, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := t.Len() / cfg.IntervalLen
	if n == 0 {
		return nil, fmt.Errorf("simpoint: trace has %d accesses, shorter than one %d-access interval",
			t.Len(), cfg.IntervalLen)
	}
	intervals := make([]Interval, n)
	points := make([][]float64, n)
	acc := NewSignatureAccumulator(cfg.SignatureDim)
	for i := 0; i < n; i++ {
		lo, hi := i*cfg.IntervalLen, (i+1)*cfg.IntervalLen
		acc.Reset()
		for _, a := range t.Accesses[lo:hi] {
			acc.Add(a.Addr)
		}
		sig := acc.Signature()
		intervals[i] = Interval{Index: i, Lo: lo, Hi: hi, Signature: sig}
		points[i] = sig
	}
	k := cfg.K
	if k == 0 {
		k = 8
	}
	if k > n {
		k = n
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 50
	}
	centroids, assign := KMeans(points, k, maxIter, cfg.Seed)
	ph := &Phases{Config: cfg, Intervals: intervals,
		Representatives: make([]int, k), Weights: make([]float64, k)}
	counts := make([]int, k)
	bestDist := make([]float64, k)
	for i := range bestDist {
		bestDist[i] = math.Inf(1)
		ph.Representatives[i] = -1
	}
	for i := range intervals {
		c := assign[i]
		intervals[i].Phase = c
		counts[c]++
		d := sqDist(intervals[i].Signature, centroids[c])
		if d < bestDist[c] {
			bestDist[c] = d
			ph.Representatives[c] = i
		}
	}
	for c := 0; c < k; c++ {
		ph.Weights[c] = float64(counts[c]) / float64(n)
	}
	// Drop empty clusters (k-means can strand centroids).
	var reps []int
	var weights []float64
	for c := 0; c < k; c++ {
		if ph.Representatives[c] >= 0 {
			reps = append(reps, ph.Representatives[c])
			weights = append(weights, ph.Weights[c])
		}
	}
	ph.Representatives = reps
	ph.Weights = weights
	return ph, nil
}

// SampledTrace concatenates the representative intervals — the reduced
// trace a simulator (or the heatmap pipeline) runs instead of the full
// program.
func (p *Phases) SampledTrace(t *trace.Trace) *trace.Trace {
	out := &trace.Trace{Name: t.Name + ".simpoints"}
	for _, rep := range p.Representatives {
		iv := p.Intervals[rep]
		out.Accesses = append(out.Accesses, t.Accesses[iv.Lo:iv.Hi]...)
	}
	return out
}

// EstimateRate combines per-representative measurements into a
// whole-program estimate using the phase weights: the SimPoint
// weighted-average reconstruction. measure is called once per
// representative with its sub-trace.
func (p *Phases) EstimateRate(t *trace.Trace, measure func(*trace.Trace) float64) float64 {
	var est float64
	for c, rep := range p.Representatives {
		iv := p.Intervals[rep]
		sub := &trace.Trace{Name: t.Name, Accesses: t.Accesses[iv.Lo:iv.Hi]}
		est += p.Weights[c] * measure(sub)
	}
	return est
}

// SignatureAccumulator builds a block-activity signature incrementally
// — one Add per access — so streaming consumers (internal/sampling) can
// compute interval signatures without materialising the trace. It is
// the exported form of the feature extraction Analyze uses internally:
// block addresses (addr>>6) are Fibonacci-hashed into dim buckets and
// the bucket histogram is L1-normalised on read.
type SignatureAccumulator struct {
	counts []float64
	n      int
}

// NewSignatureAccumulator returns an accumulator with dim buckets.
func NewSignatureAccumulator(dim int) *SignatureAccumulator {
	return &SignatureAccumulator{counts: make([]float64, dim)}
}

// Add records one access by address.
func (s *SignatureAccumulator) Add(addr uint64) {
	s.counts[hashBucket(addr>>6, len(s.counts))]++
	s.n++
}

// Count reports how many accesses have been added since the last Reset.
func (s *SignatureAccumulator) Count() int { return s.n }

// Signature returns the normalised activity vector as a fresh slice;
// the accumulator can keep accumulating afterwards.
func (s *SignatureAccumulator) Signature() []float64 {
	sig := append([]float64(nil), s.counts...)
	normalize(sig)
	return sig
}

// Reset clears the accumulator for the next interval.
func (s *SignatureAccumulator) Reset() {
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.n = 0
}

// hashBucket maps a block address to a signature bucket with a
// Fibonacci hash.
func hashBucket(block uint64, dim int) int {
	return int((block * 0x9E3779B97F4A7C15) >> 32 % uint64(dim))
}

func normalize(v []float64) {
	var s float64
	for _, x := range v {
		s += x
	}
	if s == 0 {
		return
	}
	for i := range v {
		v[i] /= s
	}
}

// SqDist returns the squared Euclidean distance between two vectors of
// equal length.
func SqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func sqDist(a, b []float64) float64 { return SqDist(a, b) }

// KMeans clusters points (all the same dimension) into k clusters with
// seeded k-means++ initialisation followed by Lloyd iterations; it
// returns the final centroids and per-point assignments. The result is
// fully determined by (points, k, maxIter, seed) — no global state —
// which is what lets callers fan signature extraction out across
// workers and still cluster identically at any parallelism.
func KMeans(points [][]float64, k, maxIter int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	dim := len(points[0])
	// k-means++ style init: first random, then far points.
	centroids := make([][]float64, k)
	first := rng.Intn(len(points))
	centroids[0] = append([]float64(nil), points[first]...)
	minD := make([]float64, len(points))
	for i := range minD {
		minD[i] = sqDist(points[i], centroids[0])
	}
	for c := 1; c < k; c++ {
		// Pick proportional to squared distance.
		var total float64
		for _, d := range minD {
			total += d
		}
		pick := first
		if total > 0 {
			x := rng.Float64() * total
			for i, d := range minD {
				x -= d
				if x <= 0 {
					pick = i
					break
				}
			}
		} else {
			pick = rng.Intn(len(points))
		}
		centroids[c] = append([]float64(nil), points[pick]...)
		for i := range minD {
			if d := sqDist(points[i], centroids[c]); d < minD[i] {
				minD[i] = d
			}
		}
	}
	assign := make([]int, len(points))
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i := range points {
			best, bestD := 0, math.Inf(1)
			for c := range centroids {
				if d := sqDist(points[i], centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		counts := make([]int, k)
		next := make([][]float64, k)
		for c := range next {
			next[c] = make([]float64, dim)
		}
		for i := range points {
			c := assign[i]
			counts[c]++
			for j, v := range points[i] {
				next[c][j] += v
			}
		}
		for c := range next {
			if counts[c] == 0 {
				continue // stranded centroid keeps its position
			}
			for j := range next[c] {
				next[c][j] /= float64(counts[c])
			}
			centroids[c] = next[c]
		}
	}
	return centroids, assign
}
