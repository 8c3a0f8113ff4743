// Package stats provides the batch statistics used throughout the
// measurement-analysis pipeline, the engine and the experiment harness: the
// windowed mean and spread, the quantiles, empirical CDF and kernel density
// estimate of a Sample, and the SplitMix64 mixing behind seeded draws.
//
// A Sample copies the slice it is built from and retains no reference to it.
package stats

import (
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

// Sample holds observations for batch statistics that need the full data,
// such as medians and arbitrary quantiles. The zero value is an empty sample.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns a Sample pre-loaded with xs. The slice is copied.
func NewSample(xs []float64) *Sample {
	s := &Sample{xs: append([]float64(nil), xs...)}
	return s
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

// CDF and KDE evaluate cdfPoints and kdePoints points.
const cdfPoints, kdePoints = 100, 200

// CDFPoint is one point of an empirical CDF: the fraction F of observations
// that are ≤ X.
type CDFPoint struct {
	X float64
	F float64
}

// CDF returns the empirical CDF evaluated at cdfPoints evenly spaced sample
// quantiles, suitable for plotting.
func (s *Sample) CDF() []CDFPoint {
	n := len(s.xs)
	if n == 0 {
		return nil
	}
	s.ensureSorted()
	out := make([]CDFPoint, 0, cdfPoints)
	for i := 0; i < cdfPoints; i++ {
		f := float64(i+1) / cdfPoints
		idx := int(math.Ceil(f*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		out = append(out, CDFPoint{X: s.xs[idx], F: f})
	}
	return out
}

// PDFPoint is one point of an estimated probability density function.
type PDFPoint struct {
	X float64
	Y float64
}

// KDE estimates the probability density of the sample on a grid of
// kdePoints points over [0, hi] using a Gaussian kernel whose bandwidth
// follows Silverman's rule of thumb.
func (s *Sample) KDE(hi float64) []PDFPoint {
	n := len(s.xs)
	if n == 0 || hi <= 0 {
		return nil
	}
	sd := s.StdDev()
	if sd == 0 {
		sd = 1
	}
	bandwidth := 1.06 * sd * math.Pow(float64(n), -0.2)
	out := make([]PDFPoint, kdePoints)
	norm := 1 / (float64(n) * bandwidth * math.Sqrt(2*math.Pi))
	for i := range out {
		x := hi * float64(i) / (kdePoints - 1)
		var y float64
		for _, xi := range s.xs {
			u := (x - xi) / bandwidth
			y += math.Exp(-0.5 * u * u)
		}
		out[i] = PDFPoint{X: x, Y: y * norm}
	}
	return out
}
