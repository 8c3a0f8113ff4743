// Package cc implements the TCP congestion-control ramp models used by the
// paper's slow-start study (§5.1, Figure 17) and by the TCP-based baseline
// BTSes (BTS-APP, FAST, FastBTS).
//
// Three algorithms are modelled — Reno, CUBIC, and BBR — at the granularity
// that matters for bandwidth testing: how the sending rate evolves from a
// small initial window to the bottleneck capacity, how long that ramp takes
// as a function of the access bandwidth, and which "noise" samples the ramp
// injects into a bandwidth test.
//
// Window growth is driven by delivery feedback from a linksim.Flow: after
// each link.Advance the caller hands the algorithm one Feedback and offers
// the rate Tick returns (see MeasureRamp). Two fixed calibrations map the
// textbook dynamics onto the field behaviour the paper measured with
// tcp_probe on production servers:
//
//   - ackDelayFactor models the delayed ACKs, ACK compression and radio
//     scheduling latency of commercial cellular/WiFi paths, which stretch a
//     "round" of window growth well beyond one propagation RTT. This is why
//     slow start takes seconds in the field rather than the textbook handful
//     of RTTs.
//   - Each algorithm has a slow-start growth exponent reflecting its ramp
//     aggressiveness: BBR's Startup pacing gain (2/ln2) grows fastest, Reno's
//     classic per-ACK doubling is the middle, and CUBIC with conservative
//     HyStart(++) growth is the slowest — reproducing Figure 17's ordering
//     (CUBIC > Reno > BBR slow-start time) and its growth with bandwidth.
//
// After the ramp, the models keep their distinctive steady-state behaviour:
// Reno AIMD, the CUBIC window function with β = 0.7, and BBR's ProbeBW gain
// cycling, so a 10-second flooding test sees realistic post-ramp dynamics.
package cc

import (
	"math"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/linksim"
)

// PacketBytes is the segment size assumed by the window models.
const PacketBytes = 1500

// ackDelayFactor is the calibrated ACK-thinning factor (see package
// comment): one effective window-growth round spans roughly this many
// propagation RTTs on a commercial mobile path.
const ackDelayFactor = 14

// InitialWindow is the initial congestion window in packets (RFC 6928).
const InitialWindow = 10

// Per-algorithm slow-start growth exponents: the congestion window grows by
// a factor of e^gain per effective round (see package comment).
const (
	gainCubic = 0.53 // ≈1.7× per round: HyStart(++)-limited growth
	gainReno  = math.Ln2
	gainBBR   = 0.95 // ≈2.59× per round: Startup pacing gain 2/ln2
)

// Feedback carries one linksim.Tick of delivery feedback from the link to an
// Algorithm.
type Feedback struct {
	Achieved float64       // Mbps delivered during the tick
	Loss     bool          // loss signal observed during the tick
	RTT      time.Duration // the link's RTT, queueing delay included
}

// Algorithm is a congestion-control model. Tick consumes one tick of
// feedback and returns the rate (Mbps) the sender should offer next tick.
type Algorithm interface {
	Name() string
	Tick(fb Feedback) float64
	// InSlowStart reports whether the algorithm is still in its initial
	// ramp phase (slow start for Reno/CUBIC, Startup for BBR).
	InSlowStart() bool
}

// windowRate converts a congestion window (packets) and RTT into Mbps.
func windowRate(cwnd float64, rtt time.Duration) float64 { return windowRateSec(cwnd, rtt.Seconds()) }

// windowRateSec is windowRate with the RTT already in seconds.
func windowRateSec(cwnd, rttSec float64) float64 {
	if rttSec <= 0 {
		return 0
	}
	return cwnd * PacketBytes * 8 / rttSec / 1e6
}

// InitialRate is the rate (Mbps) a new connection offers before its first
// feedback: InitialWindow packets per rtt.
func InitialRate(rtt time.Duration) float64 { return windowRate(InitialWindow, rtt) }

// ackedPackets converts delivered Mbps during a tick into effective
// window-growth events after ACK thinning.
func ackedPackets(fb Feedback) float64 {
	bytes := fb.Achieved * 1e6 * linksim.TickSeconds / 8
	return bytes / PacketBytes / ackDelayFactor
}

// Reno implements NewReno-style slow start and AIMD congestion avoidance.
type Reno struct {
	cwnd     float64
	ssthresh float64
	slow     bool
}

// NewReno returns a Reno model.
func NewReno() *Reno { return &Reno{cwnd: InitialWindow, ssthresh: math.Inf(1), slow: true} }

// Name implements Algorithm.
func (r *Reno) Name() string { return "reno" }

// InSlowStart implements Algorithm.
func (r *Reno) InSlowStart() bool { return r.slow }

// Tick implements Algorithm.
func (r *Reno) Tick(fb Feedback) float64 {
	if fb.Loss {
		r.ssthresh = math.Max(r.cwnd/2, 2)
		r.cwnd = r.ssthresh
		r.slow = false
	} else {
		acked := ackedPackets(fb)
		if r.slow && r.cwnd < r.ssthresh {
			r.cwnd += gainReno * acked
		} else {
			r.slow = false
			r.cwnd += acked / r.cwnd // AIMD: +1 per round
		}
	}
	return windowRate(r.cwnd, fb.RTT)
}

// Cubic implements CUBIC with a HyStart-style delay-based slow-start exit.
type Cubic struct {
	cwnd       float64
	wmax       float64
	k          float64 // ∛(wmax·(1−β)/C), refreshed by setWmax
	slow       bool
	epochStart time.Duration
	elapsed    time.Duration
	minRTT     time.Duration
}

// CUBIC constants (RFC 8312): scaling constant C and multiplicative
// decrease factor β.
const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// NewCubic returns a CUBIC model.
func NewCubic() *Cubic { return &Cubic{cwnd: InitialWindow, slow: true} }

// Name implements Algorithm.
func (c *Cubic) Name() string { return "cubic" }

// InSlowStart implements Algorithm.
func (c *Cubic) InSlowStart() bool { return c.slow }

// setWmax records the window at the last reduction together with the K it
// implies, so the per-tick window function needs no cube root.
func (c *Cubic) setWmax(w float64) {
	c.wmax = w
	c.k = math.Cbrt(w * (1 - cubicBeta) / cubicC)
}

// Tick implements Algorithm.
func (c *Cubic) Tick(fb Feedback) float64 { return c.TickSec(fb, fb.RTT.Seconds()) }

// TickSec is Tick for a sender that has converted fb.RTT to seconds
// already: the flood reads its link's RTT once per tick and hands every
// flow's sender the same float.
//
// swiftvet:hotpath
func (c *Cubic) TickSec(fb Feedback, rttSec float64) float64 {
	c.elapsed += linksim.Tick
	if c.minRTT == 0 || fb.RTT < c.minRTT {
		c.minRTT = fb.RTT
	}

	switch {
	case fb.Loss:
		c.setWmax(c.cwnd)
		c.cwnd = math.Max(c.cwnd*cubicBeta, 2)
		c.slow = false
		c.epochStart = c.elapsed
	case c.slow:
		c.cwnd += gainCubic * ackedPackets(fb)
		// HyStart delay-based exit: queueing delay indicates the pipe is
		// filling; leave slow start before overshooting badly.
		thresh := c.minRTT + maxDuration(4*time.Millisecond, c.minRTT/8)
		if fb.RTT > thresh {
			c.slow = false
			c.setWmax(c.cwnd)
			c.epochStart = c.elapsed
		}
	default:
		// Cubic window: W(t) = C·(t−K)³ + Wmax, K = ∛(Wmax·(1−β)/C).
		d := (c.elapsed - c.epochStart).Seconds() - c.k
		target := cubicC*(d*d*d) + c.wmax
		acked := ackedPackets(fb)
		if target > c.cwnd {
			// Approach the cubic target at most one packet per ACK event.
			// target > cwnd ≥ 2 rules out a NaN target and signed zeros,
			// and a NaN sum stays NaN, so the comparison gives math.Min's
			// bits without its call.
			next := c.cwnd + acked
			if target < next {
				next = target
			}
			c.cwnd = next
		} else {
			// TCP-friendly floor: grow at least like Reno.
			c.cwnd += acked / c.cwnd
		}
	}
	if c.cwnd < 2 {
		c.cwnd = 2
	}
	return windowRateSec(c.cwnd, rttSec)
}

// BBR implements the Startup/Drain/ProbeBW phases of BBRv1 at the level of
// rate evolution: an exponential Startup at pacing gain 2/ln2, plateau
// detection on the bottleneck-bandwidth estimate, a Drain phase, and the
// 8-phase ProbeBW gain cycle.
type BBR struct {
	phase      bbrPhase
	cwnd       float64 // Startup ramp state, ACK-clocked like slow start
	btlBw      float64 // bottleneck bandwidth estimate (Mbps)
	fullBwRef  float64 // btlBw at the last growth check
	stallCount int     // rounds without ≥25 % btlBw growth
	cycleIdx   int
	cycleTime  time.Duration
	minRTT     time.Duration
	roundTime  time.Duration
}

type bbrPhase int

const (
	bbrStartup bbrPhase = iota
	bbrDrain
	bbrProbeBW
)

// bbrProbeGains is BBRv1's 8-phase ProbeBW pacing-gain cycle.
var bbrProbeGains = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// NewBBR returns a BBR model.
func NewBBR() *BBR { return &BBR{phase: bbrStartup, cwnd: InitialWindow} }

// Name implements Algorithm.
func (b *BBR) Name() string { return "bbr" }

// InSlowStart implements Algorithm; BBR's Startup is its slow-start analog.
func (b *BBR) InSlowStart() bool { return b.phase == bbrStartup }

// Tick implements Algorithm.
func (b *BBR) Tick(fb Feedback) float64 {
	if b.minRTT == 0 || fb.RTT < b.minRTT {
		b.minRTT = fb.RTT
	}
	if fb.Achieved > b.btlBw {
		b.btlBw = fb.Achieved
	}
	b.roundTime += linksim.Tick
	roundLen := time.Duration(float64(maxDuration(b.minRTT, linksim.Tick)) * ackDelayFactor)

	switch b.phase {
	case bbrStartup:
		if b.roundTime >= roundLen {
			b.roundTime = 0
			if b.btlBw < b.fullBwRef*1.25 {
				b.stallCount++
			} else {
				b.stallCount = 0
				b.fullBwRef = b.btlBw
			}
			if b.stallCount >= 3 && b.btlBw > 0 {
				b.phase = bbrDrain
				b.roundTime = 0
			}
		}
		b.cwnd += gainBBR * ackedPackets(fb)
		return windowRate(b.cwnd, fb.RTT)
	case bbrDrain:
		// Pace below the estimate to drain the Startup queue.
		if fb.RTT <= b.minRTT+b.minRTT/8 || b.roundTime >= roundLen {
			b.phase = bbrProbeBW
			b.roundTime = 0
		}
		return math.Max(b.btlBw*0.75, 0.1)
	default: // bbrProbeBW
		b.cycleTime += linksim.Tick
		if b.cycleTime >= maxDuration(b.minRTT, 10*time.Millisecond) {
			b.cycleTime = 0
			b.cycleIdx = (b.cycleIdx + 1) % len(bbrProbeGains)
		}
		return math.Max(bbrProbeGains[b.cycleIdx]*b.btlBw, 0.1)
	}
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// RampResult reports how a congestion-control algorithm ramped on a link.
type RampResult struct {
	// RampTime is the virtual time until the flow's achieved rate first
	// reached rampTarget × link capacity — the duration during which a
	// bandwidth test collects only slow-start "noise" samples.
	RampTime time.Duration
	// Reached reports whether the target was reached within rampDeadline.
	Reached bool
}

// MeasureRamp waits up to rampDeadline for rampTarget × link capacity.
const rampTarget, rampDeadline = 0.9, 30 * time.Second

// MeasureRamp runs alg over a fresh flow on link and measures the time until
// the achieved rate first reaches rampTarget × capacity, up to rampDeadline.
func MeasureRamp(link *linksim.Link, alg Algorithm) RampResult {
	flow := link.NewFlow()
	defer flow.Close()
	flow.SetOffered(InitialRate(link.RTT()))
	target := rampTarget * link.Config().CapacityMbps
	start := link.Now()
	for link.Now()-start < rampDeadline {
		link.Advance()
		flow.SetOffered(alg.Tick(Feedback{Achieved: flow.Achieved(), Loss: flow.LossSignal(), RTT: link.RTT()}))
		if flow.Achieved() >= target {
			return RampResult{RampTime: link.Now() - start, Reached: true}
		}
	}
	return RampResult{RampTime: rampDeadline, Reached: false}
}

// rampGrowth is the per-sample growth ratio regarded as slow-start-like by
// RampFraction: half the Cubic slow-start per-round gain, the most
// conservative of the three modeled algorithms at sub-RTT sampling scales.
const rampGrowth = 1 + gainCubic/2

// RampFraction reports the fraction of consecutive sample pairs whose growth
// ratio is slow-start-like (≥ ~1.27×) — a CC-phase hint for termination
// policies: values near 1 mean the stream is still ramping multiplicatively
// the way the modeled algorithms do before exiting slow start, values near 0
// mean growth has flattened into congestion avoidance or a plateau. It is a
// pure function of the samples — deterministic and allocation-free.
func RampFraction(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	ramping := 0
	for i := 1; i < len(samples); i++ {
		if samples[i-1] > 0 && samples[i] >= samples[i-1]*rampGrowth {
			ramping++
		}
	}
	return float64(ramping) / float64(len(samples)-1)
}
