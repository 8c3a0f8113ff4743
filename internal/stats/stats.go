// Package stats provides the streaming and batch statistics used throughout
// the measurement-analysis pipeline and the experiment harness: running
// summaries, quantiles, empirical CDFs, histograms, kernel density estimates,
// and keyed group-by aggregation.
//
// All types are plain values with useful zero values where possible, and none
// of them retain references to caller-owned slices beyond what their
// documentation states.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean is the arithmetic mean of xs by one left-to-right sum, 0 for an empty
// slice. Every windowed estimate in the engine, the baselines and the
// estimator family goes through it, so their float results agree bit for bit.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Spread is the max/min difference ratio (max − min) / max of xs — the
// quantity the §5.1 3 % convergence criterion bounds. It is 0 for an empty
// slice and when the maximum is 0.
func Spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == 0 {
		return 0
	}
	return (hi - lo) / hi
}

// Summary accumulates a running summary of a stream of observations using
// Welford's online algorithm. The zero value is an empty summary ready to use.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N reports the number of observations added.
func (s *Summary) N() int { return s.n }

// Mean reports the arithmetic mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 { return s.mean }

// Min reports the smallest observation, or 0 for an empty summary.
func (s *Summary) Min() float64 { return s.min }

// Max reports the largest observation, or 0 for an empty summary.
func (s *Summary) Max() float64 { return s.max }

// Variance reports the unbiased sample variance, or 0 with fewer than two
// observations.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev reports the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// String renders the summary in a compact human-readable form.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f min=%.2f max=%.2f sd=%.2f",
		s.n, s.mean, s.min, s.max, s.StdDev())
}

// Sample collects observations for batch statistics that need the full data,
// such as medians and arbitrary quantiles. The zero value is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns a Sample pre-loaded with xs. The slice is copied.
func NewSample(xs []float64) *Sample {
	s := &Sample{xs: append([]float64(nil), xs...)}
	return s
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N reports the number of observations.
func (s *Sample) N() int { return len(s.xs) }

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Mean reports the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// StdDev reports the sample standard deviation.
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Max reports the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[len(s.xs)-1]
}

// Median reports the 50th percentile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Quantile reports the q-quantile (0 ≤ q ≤ 1) using linear interpolation
// between order statistics. It returns 0 for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return s.xs[n-1]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// FractionBelow reports the fraction of observations strictly below x.
func (s *Sample) FractionBelow(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	i := sort.SearchFloat64s(s.xs, x)
	return float64(i) / float64(len(s.xs))
}

// FractionAbove reports the fraction of observations strictly above x.
func (s *Sample) FractionAbove(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	// First index with value > x.
	i := sort.Search(len(s.xs), func(i int) bool { return s.xs[i] > x })
	return float64(len(s.xs)-i) / float64(len(s.xs))
}

// MeanAbove reports the mean of observations strictly above x, or 0 if none.
func (s *Sample) MeanAbove(x float64) float64 {
	var sum float64
	var n int
	for _, v := range s.xs {
		if v > x {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// CDFPoint is one point of an empirical CDF: the fraction F of observations
// that are ≤ X.
type CDFPoint struct {
	X float64
	F float64
}

// CDF returns the empirical CDF evaluated at up to points evenly spaced
// sample quantiles, suitable for plotting. With points ≤ 0 a default of 100
// is used.
func (s *Sample) CDF(points int) []CDFPoint {
	if points <= 0 {
		points = 100
	}
	n := len(s.xs)
	if n == 0 {
		return nil
	}
	s.ensureSorted()
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		f := float64(i+1) / float64(points)
		idx := int(math.Ceil(f*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		out = append(out, CDFPoint{X: s.xs[idx], F: f})
	}
	return out
}

// Histogram counts observations in equal-width bins over [lo, hi).
// Observations outside the range are clamped into the first/last bin.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram returns a histogram with bins equal-width bins over [lo, hi).
// It panics if bins ≤ 0 or hi ≤ lo, which indicates a programming error.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram [%g,%g) bins=%d", lo, hi, bins))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	bin := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if bin < 0 {
		bin = 0
	}
	if bin >= len(h.Counts) {
		bin = len(h.Counts) - 1
	}
	h.Counts[bin]++
	h.total++
}

// Total reports the number of observations recorded.
func (h *Histogram) Total() int { return h.total }

// BinCenter reports the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Density reports the probability density of bin i (fraction / bin width).
func (h *Histogram) Density(i int) float64 {
	if h.total == 0 {
		return 0
	}
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return float64(h.Counts[i]) / float64(h.total) / w
}

// PDFPoint is one point of an estimated probability density function.
type PDFPoint struct {
	X float64
	Y float64
}

// KDE estimates the probability density of the sample on a grid of points
// over [lo, hi] using a Gaussian kernel with the given bandwidth. With
// bandwidth ≤ 0 Silverman's rule of thumb is used.
func (s *Sample) KDE(lo, hi float64, points int, bandwidth float64) []PDFPoint {
	n := len(s.xs)
	if n == 0 || points <= 0 || hi <= lo {
		return nil
	}
	if bandwidth <= 0 {
		sd := s.StdDev()
		if sd == 0 {
			sd = 1
		}
		bandwidth = 1.06 * sd * math.Pow(float64(n), -0.2)
	}
	out := make([]PDFPoint, points)
	norm := 1 / (float64(n) * bandwidth * math.Sqrt(2*math.Pi))
	for i := 0; i < points; i++ {
		x := lo + (hi-lo)*float64(i)/float64(points-1)
		var y float64
		for _, xi := range s.xs {
			u := (x - xi) / bandwidth
			y += math.Exp(-0.5 * u * u)
		}
		out[i] = PDFPoint{X: x, Y: y * norm}
	}
	return out
}

// GroupBy aggregates observations under string keys, one Sample per key.
// The zero value is not usable; construct with NewGroupBy.
type GroupBy struct {
	groups map[string]*Sample
	order  []string
}

// NewGroupBy returns an empty keyed aggregation.
func NewGroupBy() *GroupBy {
	return &GroupBy{groups: make(map[string]*Sample)}
}

// Add records an observation under key, creating the group if needed.
func (g *GroupBy) Add(key string, x float64) {
	s, ok := g.groups[key]
	if !ok {
		s = &Sample{}
		g.groups[key] = s
		g.order = append(g.order, key)
	}
	s.Add(x)
}

// Group returns the Sample for key, or nil if the key has no observations.
func (g *GroupBy) Group(key string) *Sample { return g.groups[key] }

// Keys returns group keys in first-seen order.
func (g *GroupBy) Keys() []string { return g.order }

// SortedKeys returns group keys in lexical order.
func (g *GroupBy) SortedKeys() []string {
	ks := append([]string(nil), g.order...)
	sort.Strings(ks)
	return ks
}

// Means returns each group's mean keyed by group name.
func (g *GroupBy) Means() map[string]float64 {
	out := make(map[string]float64, len(g.groups))
	for k, s := range g.groups {
		out[k] = s.Mean()
	}
	return out
}

// Counts returns each group's observation count keyed by group name.
func (g *GroupBy) Counts() map[string]int {
	out := make(map[string]int, len(g.groups))
	for k, s := range g.groups {
		out[k] = s.N()
	}
	return out
}
