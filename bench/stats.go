package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cvPct is the coefficient of variation of xs in percent.
func cvPct(xs []float64) float64 {
	m := mean(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return 100 * math.Sqrt(ss/float64(len(xs)-1)) / m
}

// spread describes a timing the way the ledger promises: median and
// quartiles with the sample count, and no percentile the count cannot
// support.
func spread(xs []float64) string {
	return fmt.Sprintf("n=%d q1=%.4g median=%.4g q3=%.4g", len(xs), quantile(xs, 0.25), median(xs), quantile(xs, 0.75))
}
