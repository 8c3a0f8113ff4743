// Package baseline implements the bandwidth-testing systems the paper
// compares Swiftest against: BTS-APP's probing-by-flooding (§2), FAST's
// stability-stop logic, and FastBTS's crucial-interval estimation (§5.1,
// §5.3). The probers run on the linksim virtual-time emulator with CUBIC
// connections, so a full 10-second flooding test simulates in microseconds.
// Each system runs with its published parameters, written once as the
// constants beside it. FAST and FastBTS open the same four connections and
// differ only in their stop rules, so Flood runs both on one flood.
package baseline

import (
	"time"

	"github.com/mobilebandwidth/swiftest/internal/cc"
	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// Report is the outcome of one bandwidth test by any prober.
type Report struct {
	Result   float64       // estimated access bandwidth (Mbps)
	Duration time.Duration // virtual test duration (excluding server selection)
	DataMB   float64       // bytes transferred during the test, in MB
	Samples  []float64     // the 50 ms bandwidth samples collected
	Flows    int           // peak number of parallel connections used
}

// Prober is a bandwidth-testing system runnable on an emulated access link.
type Prober interface {
	Name() string
	Run(link *linksim.Link) Report
}

// aggregate drives a set of TCP connections over one link and produces
// aggregate 50 ms samples. It is the shared machinery of all TCP-based
// probers. cubics[i] is the CUBIC sender of flows[i]; a flow past
// len(cubics) has no congestion control of its own (TCPSwiftest paces its
// one flow itself).
type aggregate struct {
	link   *linksim.Link
	flows  []*linksim.Flow
	cubics []*cc.Cubic

	lastBytes float64
	lastAt    time.Duration
}

func newAggregate(link *linksim.Link) *aggregate {
	return &aggregate{link: link, lastAt: link.Now()}
}

// addFlow opens one more TCP connection running CUBIC, the dominant server
// default, at its initial-window rate.
func (a *aggregate) addFlow() {
	f := a.link.NewFlow()
	f.SetOffered(cc.InitialRate(a.link.RTT()))
	a.flows = append(a.flows, f)
	a.cubics = append(a.cubics, cc.NewCubic())
}

// step advances one tick of the connection set: the link moves, then each
// CUBIC sender reads its flow's delivery and the link-wide RTT, converted to
// seconds once for all of them, and offers its next rate.
//
// swiftvet:hotpath
func (a *aggregate) step() {
	a.link.Advance()
	rtt := a.link.RTT()
	rttSec := rtt.Seconds()
	for i, c := range a.cubics {
		f := a.flows[i]
		f.SetOffered(c.TickSec(cc.Feedback{Achieved: f.Achieved(), Loss: f.LossSignal(), RTT: rtt}, rttSec))
	}
}

// totalBytes reports cumulative delivered bytes across all connections.
func (a *aggregate) totalBytes() float64 {
	var b float64
	for _, f := range a.flows {
		b += f.DeliveredBytes()
	}
	return b
}

// sample returns the aggregate throughput (Mbps) since the previous sample.
func (a *aggregate) sample() float64 {
	now := a.link.Now()
	elapsed := (now - a.lastAt).Seconds()
	if elapsed <= 0 {
		return 0
	}
	total := a.totalBytes()
	bytes := total - a.lastBytes
	a.lastBytes = total
	a.lastAt = now
	return bytes * 8 / elapsed / 1e6
}

// close releases all connections.
func (a *aggregate) close() {
	for _, f := range a.flows {
		f.Close()
	}
}

// ticksPerSample is the number of emulator ticks per 50 ms sample.
const ticksPerSample = int(linksim.SampleInterval / linksim.Tick)

// BTSApp reproduces the commercial app's probing-by-flooding (§2): download
// for a fixed 10 seconds over HTTP/TCP connections, collect a bandwidth
// sample every 50 ms (200 samples total), progressively open connections to
// additional nearby servers whenever the latest sample crosses the next
// threshold of the Speedtest-style ladder (estimate.BTSAppScaleLadder), and
// estimate with the 20-group 5-low/2-high trimming rule. Its duration and
// flow counts are the estimate.BTSApp* constants.
type BTSApp struct{}

// Name implements Prober.
func (b *BTSApp) Name() string { return "bts-app" }

// Run implements Prober.
func (b *BTSApp) Run(link *linksim.Link) Report {
	ladder := estimate.BTSAppScaleLadder()
	agg := newAggregate(link)
	defer agg.close()
	for i := 0; i < estimate.BTSAppInitialFlows; i++ {
		agg.addFlow()
	}

	start := link.Now()
	var samples []float64
	nextRung := 0
	peak := estimate.BTSAppInitialFlows
	for link.Now()-start < estimate.BTSAppDuration {
		for i := 0; i < ticksPerSample; i++ {
			agg.step()
		}
		s := agg.sample()
		samples = append(samples, s)
		// Progressive connection scale-up (§2).
		for nextRung < len(ladder) && s >= ladder[nextRung] {
			if len(agg.flows) < estimate.BTSAppMaxFlows {
				agg.addFlow()
				if len(agg.flows) > peak {
					peak = len(agg.flows)
				}
			}
			nextRung++
		}
	}
	return Report{
		Result:   estimate.BTSAppEstimate(samples),
		Duration: link.Now() - start,
		DataMB:   agg.totalBytes() / 1e6,
		Samples:  samples,
		Flows:    peak,
	}
}

// floodFlows is the connection count of FAST and FastBTS alike: both open
// four CUBIC connections at once and keep them to the end, so the two see
// one flood and differ only in when they stop reading it.
const floodFlows = 4

// FloodProber is a prober whose test is the four-flow CUBIC flood, FAST or
// FastBTS. Flood runs any number of them on one flood.
type FloodProber interface {
	Prober
	stopRule() stopRule
}

// stopRule is one flood prober's rule over one flood. next reads the newest
// sample, samples[len(samples)-1], taken elapsed after the flood began, and
// reports whether the test ends there and with what result.
type stopRule interface {
	next(samples []float64, elapsed time.Duration) (result float64, stop bool)
}

// Flood runs the four-flow CUBIC flood on link until the last of probers
// has stopped, and returns each prober's report as of its own stop: the
// samples it had read, the time it had run and the bytes delivered by then.
// The flood does not depend on who reads it, so each report is the one the
// prober would have made alone on a link of the same seed.
func Flood(link *linksim.Link, probers ...FloodProber) []Report {
	agg := newAggregate(link)
	defer agg.close()
	for range floodFlows {
		agg.addFlow()
	}
	rules := make([]stopRule, len(probers))
	for i, p := range probers {
		rules[i] = p.stopRule()
	}
	reports := make([]Report, len(probers))
	start := link.Now()
	var samples []float64
	for running := len(rules); running > 0; {
		for range ticksPerSample {
			agg.step()
		}
		samples = append(samples, agg.sample())
		elapsed := link.Now() - start
		for i, rule := range rules {
			if rule == nil {
				continue
			}
			if result, stop := rule.next(samples, elapsed); stop {
				n := len(samples)
				reports[i] = Report{
					Result:   result,
					Duration: elapsed,
					DataMB:   agg.totalBytes() / 1e6,
					Samples:  samples[:n:n],
					Flows:    floodFlows,
				}
				rules[i] = nil
				running--
			}
		}
	}
	return reports
}

// fast.com's published parameters, as reverse-engineered by the FastBTS work
// (§5.3). Its stability threshold is estimate.StableThreshold.
const (
	fastMinDuration = 8 * time.Second  // fast.com's observed floor
	fastMaxDuration = 30 * time.Second // give up on stability here
	fastWindow      = 20               // stability window: one second of samples
)

// FAST reproduces the key testing logic of Netflix's fast.com (§5.3, as
// reverse-engineered by the FastBTS work): several parallel TCP connections,
// 50 ms samples, and a stability stop — the test ends once the last second
// of samples agree within 3 %, subject to a minimum and maximum duration.
// The result is the mean of the stable window.
type FAST struct{}

// Name implements Prober.
func (f *FAST) Name() string { return "fast" }

// Run implements Prober.
func (f *FAST) Run(link *linksim.Link) Report { return Flood(link, f)[0] }

func (f *FAST) stopRule() stopRule { return fastStop{} }

// fastStop is FAST's rule. It keeps no state: the window is the flood's
// last fastWindow samples.
type fastStop struct{}

func (fastStop) next(samples []float64, elapsed time.Duration) (float64, bool) {
	if elapsed >= fastMinDuration && len(samples) >= fastWindow {
		if tail := samples[len(samples)-fastWindow:]; estimate.Stable(tail, estimate.StableThreshold) {
			return stats.Mean(tail), true
		}
	}
	if elapsed < fastMaxDuration {
		return 0, false
	}
	// Timed out without stability: report the stable-window mean anyway.
	return stats.Mean(samples[max(len(samples)-fastWindow, 0):]), true
}

// FastBTS's deadline (NSDI '21); its stopping rule is estimate.FastBTSStop,
// which core.FastBTSPolicy runs too.
const fastBTSMaxDuration = 10 * time.Second

// FastBTS reproduces the NSDI'21 FastBTS design (§5.1/§5.3): TCP probing
// with crucial-interval bandwidth estimation, stopping as soon as consecutive
// crucial-interval estimates agree. The paper finds that this converges fast
// but tends to stop before the client's bandwidth is saturated (its samples
// still include the ramp), underestimating the access bandwidth — the
// accuracy deficit of Figure 25.
type FastBTS struct{}

// Name implements Prober.
func (f *FastBTS) Name() string { return "fastbts" }

// Run implements Prober.
func (f *FastBTS) Run(link *linksim.Link) Report { return Flood(link, f)[0] }

func (f *FastBTS) stopRule() stopRule { return &fastBTSStop{} }

// fastBTSStop is FastBTS's rule: the crucial-interval estimates of the
// samples so far, fed one sample per call.
type fastBTSStop struct{ rule estimate.FastBTSStop }

func (f *fastBTSStop) next(samples []float64, elapsed time.Duration) (float64, bool) {
	if est, streak, _ := f.rule.Add(samples[len(samples)-1]); streak >= estimate.FastBTSAgreeRounds {
		return est, true
	}
	if elapsed < fastBTSMaxDuration {
		return 0, false
	}
	return f.rule.Estimate(), true
}
