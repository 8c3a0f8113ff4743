package estimate

import "math"

// FastBTS's published stopping parameters (NSDI '21): the crucial-interval
// estimate must agree with its value fastBTSAgreeLag samples earlier for
// FastBTSAgreeRounds consecutive samples.
const (
	// FastBTSMinSamples is the first prefix length the rule judges.
	FastBTSMinSamples = 30
	// FastBTSAgreeRounds is the agreement streak that stops a test.
	FastBTSAgreeRounds = 5

	fastBTSWarmup         = 10   // leading ramp samples excluded from the crucial interval
	fastBTSAgreeLag       = 20   // samples between compared estimates (one second)
	fastBTSAgreeThreshold = 0.05 // relative difference, over the larger estimate, that still agrees
)

// FastBTSStop is FastBTS's stopping rule over one test's sample stream, fed
// a sample at a time. From FastBTSMinSamples on, every prefix is judged: its
// crucial-interval estimate over the samples after the warm-up agrees when
// the estimate of the prefix fastBTSAgreeLag samples shorter is within
// fastBTSAgreeThreshold of it, and an agreeing prefix extends the streak
// that a disagreeing one resets. A lagged prefix that is all warm-up
// estimates 0, and a zero estimate never agrees. The zero value is an empty
// stream; it is not safe for concurrent use.
type FastBTSStop struct {
	n      int       // samples added
	table  crucial   // the samples after the warm-up
	prefix []float64 // prefix[i]: the estimate over the first fastBTSWarmup+1+i samples
	streak int
}

// Add appends x to the stream and returns the estimate over the stream so
// far, the agreement streak ending at it, and whether the prefix was judged
// (it holds at least FastBTSMinSamples samples; the streak is 0 until then).
// The test stops once the streak reaches FastBTSAgreeRounds.
func (r *FastBTSStop) Add(x float64) (est float64, streak int, judged bool) {
	r.n++
	if r.n <= fastBTSWarmup {
		return 0, 0, false
	}
	r.table.Add(x)
	est = r.table.Estimate()
	r.prefix = append(r.prefix, est)
	if r.n < FastBTSMinSamples {
		return est, 0, false
	}
	var lagged float64
	if m := r.n - fastBTSAgreeLag; m > fastBTSWarmup {
		lagged = r.prefix[m-fastBTSWarmup-1]
	}
	if lagged > 0 && est > 0 && math.Abs(est-lagged)/max(est, lagged) <= fastBTSAgreeThreshold {
		r.streak++
	} else {
		r.streak = 0
	}
	return est, r.streak, true
}

// Estimate is the crucial-interval estimate over every sample after the
// warm-up: the answer of a test that ran out of time before it agreed.
func (r *FastBTSStop) Estimate() float64 {
	return r.table.Estimate()
}
