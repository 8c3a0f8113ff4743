package estimate

import (
	"math"

	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// crucial is FastBTS's crucial-interval sampling (§5.1) kept up to date as
// samples arrive: among all intervals bounded by sample values, choose the
// one maximising the product of sample density and quantity, and estimate
// the bandwidth as the mean of the samples inside it. The zero value is an
// empty table.
type crucial struct {
	sorted []float64 // the samples, ascending
	// minW[d] is the narrowest width of d+1 consecutive sorted samples.
	minW []float64
}

// Add inserts x after any samples equal to it and lowers each count's
// narrowest width with the windows that hold x. No other window can be
// narrower than before: a window the insert split keeps its start and
// trades its last sample for one no larger, so it becomes a window that
// holds x and is no wider (float subtraction is monotone). Of those, only a
// window whose ends both lie within minW[d] of x can be narrower than
// minW[d]; minW never falls as d grows, so the first start and the last end
// that pass that test only move outwards, and one Add scans the windows
// near x rather than every window that holds it. On an ascending stream x
// lands last and each count has one window that holds it.
//
// swiftvet:hotpath
func (c *crucial) Add(x float64) {
	p, hi := 0, len(c.sorted)
	for p < hi {
		m := int(uint(p+hi) >> 1)
		if c.sorted[m] > x {
			hi = m
		} else {
			p = m + 1
		}
	}
	c.sorted = append(c.sorted, 0)
	copy(c.sorted[p+1:], c.sorted[p:])
	c.sorted[p] = x
	c.minW = append(c.minW, math.Inf(1))
	s, last := c.sorted, len(c.sorted)-1
	// s[a:p+1] are the samples less than w below x, s[p:b+1] those less
	// than w above it.
	a, b := p+1, p-1
	for d, w := range c.minW {
		for a > 0 && x-s[a-1] < w {
			a--
		}
		for b < last && s[b+1]-x < w {
			b++
		}
		// The windows of d+1 samples that hold index p and lie in s[a:b+1]:
		// their starts are bottom, their ends top.
		if lo, hi := max(a, p-d), min(p, b-d); lo <= hi {
			top := s[lo+d : hi+d+1]
			bottom := s[lo : lo+len(top)]
			for i, end := range top {
				if end-bottom[i] < w {
					w = end - bottom[i]
				}
			}
		}
		c.minW[d] = w
	}
}

// Estimate is the crucial-interval estimate over every sample added so
// far, in O(n).
func (c *crucial) Estimate() float64 {
	return crucialArgmax(c.sorted, c.minW)
}

// crucialArgmax picks the crucial interval given the samples in ascending
// order and minW[d], the narrowest width of d+1 consecutive ones, and
// returns its mean. An interval of k samples and width w scores
// k/(w+eps)·(k/n), which cannot rise as w grows, so each count's best score
// is that of its narrowest interval and the maximum over counts is the
// maximum over all intervals. The full scan of every interval kept the
// first one reaching it by start, then by count (strict >); rescanning the
// starts of each count that reaches it, with the same expression, finds
// that same interval.
//
// swiftvet:hotpath
func crucialArgmax(sorted, minW []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// Guard width so identical samples don't divide by zero; scale-relative.
	eps := (sorted[n-1] - sorted[0]) / float64(n*10)
	if eps <= 0 {
		return sorted[0]
	}
	minW = minW[:n]
	best := math.Inf(-1)
	for d, w := range minW {
		// density × quantity
		k := float64(d + 1)
		if score := k / (w + eps) * (k / float64(n)); score > best {
			best = score
		}
	}
	lo, hi := n, n
	for d, w := range minW {
		k := float64(d + 1)
		if k/(w+eps)*(k/float64(n)) != best {
			continue
		}
		// A start at or after lo loses to the earlier count already there.
		top := sorted[d:]
		for i, end := range top[:min(lo, len(top))] {
			if k/(end-sorted[i]+eps)*(k/float64(n)) == best {
				lo, hi = i, i+d
				break
			}
		}
	}
	if lo == n {
		// No score is a number (a NaN sample): the scan kept every sample.
		lo, hi = 0, n-1
	}
	return stats.Mean(sorted[lo : hi+1])
}
