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
//
// The table does not keep each count's narrowest width, only bounds on it:
// lb[d] ≤ w[d] ≤ ub[d], where w[d] is the narrowest width of d+1
// consecutive sorted samples. Add keeps both bounds in O(n) without
// looking at a window that lacks the new sample, and Estimate computes w[d]
// exactly only for a count whose score could reach the best one.
type crucial struct {
	sorted []float64 // the samples, ascending, a NaN before every number
	lb, ub []float64 // bounds on each count's narrowest width
}

// Add inserts x after any samples equal to it (a NaN before every sample,
// where sort.Float64s puts it) and moves each count's bounds, in one pass
// up the counts.
//
// Upper bound. The narrowest width w[d] never rises on an insert: a window
// of d+1 samples that the insert split keeps its start and trades its last
// sample for one no larger, so it becomes a window that holds x and is no
// wider (float subtraction is monotone), and any other old window is still
// a window. So ub[d] stays an upper bound, and it falls to the width of
// either window of d+1 samples that ends at x, x−s[p−d] and s[p+d]−x.
//
// Lower bound. A new window of d+1 samples that lacks x is an old one, no
// narrower than the old w[d], which is at least both the old lb[d] and the
// old lb[d−1]. A window that holds x spans at least the distance from x to
// its farthest other sample, and that is at least D_d, the d-th nearest
// distance from x to another sample; taking x out of it leaves d
// consecutive old samples, so it is also no narrower than the old lb[d−1].
// So w[d] is at least min(old lb[d], D_d) and at least the old lb[d−1];
// and w[d] never falls as d grows, so it is at least the new lb[d−1].
// lb[d] is the largest of the three. D_d comes from a walk out from x that
// takes the nearer side at each step.
//
// The top count has one window, the whole table, and both its bounds are
// its width. An Inf sample can make a width NaN; ub never takes one, since
// it is what Estimate scores when an Inf sample makes eps Inf.
//
// swiftvet:hotpath
func (c *crucial) Add(x float64) {
	p := 0
	if x == x { // a NaN goes first
		hi := len(c.sorted)
		for p < hi {
			m := int(uint(p+hi) >> 1)
			if c.sorted[m] > x {
				hi = m
			} else {
				p = m + 1
			}
		}
	}
	c.sorted = append(c.sorted, 0)
	copy(c.sorted[p+1:], c.sorted[p:])
	c.sorted[p] = x
	c.lb = append(c.lb, math.Inf(1))
	c.ub = append(c.ub, math.Inf(1))
	s, last := c.sorted, len(c.sorted)-1
	lb, ub := c.lb[:last+1], c.ub[:last+1]
	// below is the old lb[d−1], run the new one; s[l] and s[r] are the
	// nearest samples to x, on each side, not yet counted into D_d.
	below, run, l, r := lb[0], lb[0], p-1, p+1
	for d := 1; d < last; d++ {
		var near float64
		if r > last || (l >= 0 && x-s[l] <= s[r]-x) {
			near, l = x-s[l], l-1
		} else {
			near, r = s[r]-x, r+1
		}
		old := lb[d]
		w := old
		if near < w {
			w = near
		}
		if below > w {
			w = below
		}
		if run > w {
			w = run
		}
		lb[d], below, run = w, old, w
		if p >= d && x-s[p-d] < ub[d] {
			ub[d] = x - s[p-d]
		}
		if p+d <= last && s[p+d]-x < ub[d] {
			ub[d] = s[p+d] - x
		}
	}
	lb[0], ub[0] = 0, 0
	if last > 0 {
		lb[last] = s[last] - s[0]
		if lb[last] < ub[last] {
			ub[last] = lb[last]
		}
	}
}

// Estimate is the crucial-interval estimate over every sample added so
// far, bit for bit the full scan's.
//
// An interval's score cannot rise as its width grows, so a count scores at
// most its lb score and at least its ub score. refine gives every count
// whose lb score could reach the best score its exact narrowest width, and
// every count it leaves scores strictly below the best. So crucialArgmax,
// fed ub, finds the first interval that reaches the best score, as it would
// fed the exact widths.
//
// swiftvet:hotpath
func (c *crucial) Estimate() float64 {
	s := c.sorted
	n := len(s)
	if n == 0 {
		return 0
	}
	// Guard width so identical samples don't divide by zero; scale-relative.
	eps := (s[n-1] - s[0]) / float64(n*10)
	if eps <= 0 {
		return s[0]
	}
	sc := scoring{eps: eps, n: float64(n), cross: 0x1p-500 <= eps && eps <= 0x1p500}
	return crucialArgmax(s, c.ub, sc, c.refine(sc))
}

// refine gives the exact narrowest width to every count that could hold
// the best score, and returns the best score. Any count's ub score bounds
// the best from below; the pass up the counts starts from a high one and
// raises it with each count it refines. A count it skips has an lb score
// below that bound, so it scores strictly below the best.
//
// swiftvet:hotpath
func (c *crucial) refine(sc scoring) float64 {
	s, lb, ub := c.sorted, c.lb, c.ub[:len(c.lb)]
	// Start from the count that cross-multiplying ranks first by ub: any
	// count bounds the best, and one that likely holds it spares refining
	// the counts below it (on a uniform stream, about one refinement an
	// Estimate rather than seventy).
	top, topK2, topW := 0, 1.0, ub[0]+sc.eps
	for d, w := range ub {
		k := float64(d + 1)
		if k*k*topW > topK2*(w+sc.eps) {
			top, topK2, topW = d, k*k, w+sc.eps
		}
	}
	best := sc.score(float64(top+1), ub[top])
	for d, w := range lb {
		k := float64(d + 1)
		if sc.below(k, w, best) {
			continue
		}
		if w != ub[d] {
			w = ub[d]
			for i, end := range s[d:] {
				if end-s[i] < w {
					w = end - s[i]
				}
			}
			lb[d], ub[d] = w, w
		}
		if v := sc.score(k, ub[d]); v > best {
			best = v
		}
	}
	return best
}

// scoring scores intervals of one table: k samples of width w score
// k/(w+eps)·(k/n), density times quantity.
type scoring struct {
	eps, n float64
	// cross: eps lies within 2^±500, so every sum, quotient and product
	// in below is a normal float and each rounding is relative.
	cross bool
}

// crossSlack takes below's cross-multiplied test out of reach of the few
// roundings that separate it from the score's own expression.
const crossSlack = 1 - 0x1p-40

func (sc scoring) score(k, w float64) float64 {
	return k / (w + sc.eps) * (k / sc.n)
}

// below reports whether k samples of width w score below best. Where
// sc.cross holds, k² < (w+eps)·best·n·crossSlack settles it without a
// division: the score expression is within three roundings of
// k²/((w+eps)·n), and the product within three of its exact value, both
// far inside the slack. Otherwise, and for a NaN score, the score
// expression itself is compared.
func (sc scoring) below(k, w, best float64) bool {
	if sc.cross && k*k < (w+sc.eps)*best*sc.n*crossSlack {
		return true
	}
	return sc.score(k, w) < best
}

// crucialArgmax picks the crucial interval given the samples in ascending
// order, minW[d] as the narrowest width of d+1 consecutive ones for every
// count that can score best, and best, the highest score of any interval;
// it returns the interval's mean. An interval's score cannot rise as its
// width grows, so a count reaches best only at its narrowest width. The
// full scan of every interval kept the first one reaching best by start,
// then by count (strict >); rescanning the starts of each count that
// reaches it, with the same expression, finds that same interval.
//
// swiftvet:hotpath
func crucialArgmax(sorted, minW []float64, sc scoring, best float64) float64 {
	n := len(sorted)
	lo, hi := n, n
	for d, w := range minW[:n] {
		k := float64(d + 1)
		if sc.below(k, w, best) {
			continue
		}
		// A start at or after lo loses to the earlier count already there.
		top := sorted[d:]
		for i, end := range top[:min(lo, len(top))] {
			if w := end - sorted[i]; !sc.below(k, w, best) && sc.score(k, w) == best {
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
