// Package baseline implements the bandwidth-testing systems the paper
// compares Swiftest against: BTS-APP's probing-by-flooding (§2), Speedtest's
// static sample filter, FAST's stability-stop logic, and FastBTS's
// crucial-interval estimation (§5.1, §5.3). The probers run on the
// linksim virtual-time emulator with the cc TCP models, so a full 10-second
// flooding test simulates in microseconds.
package baseline

import (
	"slices"
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

// aggregate drives a set of TCP senders over one link and produces aggregate
// 50 ms samples. It is the shared machinery of all TCP-based probers.
type aggregate struct {
	link    *linksim.Link
	senders []*cc.Sender
	flows   []*linksim.Flow
	newAlg  func() cc.Algorithm

	lastBytes float64
	lastAt    time.Duration
}

func newAggregate(link *linksim.Link, newAlg func() cc.Algorithm) *aggregate {
	return &aggregate{link: link, newAlg: newAlg, lastAt: link.Now()}
}

// addFlow opens one more TCP connection.
func (a *aggregate) addFlow() {
	f := a.link.NewFlow()
	a.flows = append(a.flows, f)
	a.senders = append(a.senders, cc.NewSender(f, a.newAlg()))
}

// step advances one tick of the connection set.
func (a *aggregate) step() {
	a.link.Advance()
	for _, s := range a.senders {
		s.Step(linksim.Tick)
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
// threshold of the Speedtest-style ladder, and estimate with the 20-group
// 5-low/2-high trimming rule.
type BTSApp struct {
	// ProbeDuration is the fixed flooding duration; BTS-APP uses 10 s
	// (Speedtest uses 15 s). Zero selects 10 s.
	ProbeDuration time.Duration
	// ScaleThresholds is the sample ladder (Mbps) that triggers opening an
	// extra connection; §2 names 25 and 35 Mbps as the first rungs. Nil
	// selects the default ladder.
	ScaleThresholds []float64
	// InitialFlows is the number of parallel connections opened at test
	// start, before any ladder rung is crossed; Speedtest-class testers
	// begin with several. Zero selects 4.
	InitialFlows int
	// MaxFlows bounds parallel connections. Zero selects 8.
	MaxFlows int
	// NewAlg constructs the congestion control per connection; nil selects
	// CUBIC, the dominant server default.
	NewAlg func() cc.Algorithm
}

// Name implements Prober.
func (b *BTSApp) Name() string { return "bts-app" }

// Run implements Prober.
func (b *BTSApp) Run(link *linksim.Link) Report {
	dur := b.ProbeDuration
	if dur <= 0 {
		dur = 10 * time.Second
	}
	ladder := b.ScaleThresholds
	if ladder == nil {
		ladder = estimate.BTSAppScaleLadder()
	}
	maxFlows := b.MaxFlows
	if maxFlows <= 0 {
		maxFlows = 8
	}
	newAlg := b.NewAlg
	if newAlg == nil {
		newAlg = func() cc.Algorithm { return cc.NewCubic(0) }
	}

	initial := b.InitialFlows
	if initial <= 0 {
		initial = 4
	}
	if initial > maxFlows {
		initial = maxFlows
	}

	agg := newAggregate(link, newAlg)
	defer agg.close()
	for i := 0; i < initial; i++ {
		agg.addFlow()
	}

	start := link.Now()
	var samples []float64
	nextRung := 0
	peak := initial
	for link.Now()-start < dur {
		for i := 0; i < ticksPerSample; i++ {
			agg.step()
		}
		s := agg.sample()
		samples = append(samples, s)
		// Progressive connection scale-up (§2).
		for nextRung < len(ladder) && s >= ladder[nextRung] {
			if len(agg.flows) < maxFlows {
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

// FAST reproduces the key testing logic of Netflix's fast.com (§5.3, as
// reverse-engineered by the FastBTS work): several parallel TCP connections,
// 50 ms samples, and a stability stop — the test ends once the last
// StableWindow samples agree within StableThreshold, subject to a minimum
// and maximum duration. The result is the mean of the stable window.
type FAST struct {
	Flows           int           // parallel connections; 0 selects 4
	MinDuration     time.Duration // 0 selects 8 s (fast.com's observed floor)
	MaxDuration     time.Duration // 0 selects 30 s
	StableWindow    int           // 0 selects 20 samples (one second)
	StableThreshold float64       // 0 selects 0.03
	NewAlg          func() cc.Algorithm
}

// Name implements Prober.
func (f *FAST) Name() string { return "fast" }

// Run implements Prober.
func (f *FAST) Run(link *linksim.Link) Report {
	flows := f.Flows
	if flows <= 0 {
		flows = 4
	}
	minDur := f.MinDuration
	if minDur <= 0 {
		minDur = 8 * time.Second
	}
	maxDur := f.MaxDuration
	if maxDur <= 0 {
		maxDur = 30 * time.Second
	}
	window := f.StableWindow
	if window <= 0 {
		window = 20
	}
	threshold := f.StableThreshold
	if threshold <= 0 {
		threshold = 0.03
	}
	newAlg := f.NewAlg
	if newAlg == nil {
		newAlg = func() cc.Algorithm { return cc.NewCubic(0) }
	}

	agg := newAggregate(link, newAlg)
	defer agg.close()
	for i := 0; i < flows; i++ {
		agg.addFlow()
	}

	start := link.Now()
	var samples []float64
	for link.Now()-start < maxDur {
		for i := 0; i < ticksPerSample; i++ {
			agg.step()
		}
		samples = append(samples, agg.sample())
		if link.Now()-start >= minDur && len(samples) >= window {
			tail := samples[len(samples)-window:]
			if estimate.Stable(tail, threshold) {
				return Report{
					Result:   stats.Mean(tail),
					Duration: link.Now() - start,
					DataMB:   agg.totalBytes() / 1e6,
					Samples:  samples,
					Flows:    flows,
				}
			}
		}
	}
	// Timed out without stability: report the stable-window mean anyway.
	tail := samples
	if len(tail) > window {
		tail = samples[len(samples)-window:]
	}
	return Report{
		Result:   stats.Mean(tail),
		Duration: link.Now() - start,
		DataMB:   agg.totalBytes() / 1e6,
		Samples:  samples,
		Flows:    flows,
	}
}

// FastBTS reproduces the NSDI'21 FastBTS design (§5.1/§5.3): TCP probing
// with crucial-interval bandwidth estimation, stopping as soon as consecutive
// crucial-interval estimates agree. The paper finds that this converges fast
// but tends to stop before the client's bandwidth is saturated (its samples
// still include the ramp), underestimating the access bandwidth — the
// accuracy deficit of Figure 25.
type FastBTS struct {
	Flows          int           // parallel connections; 0 selects 4
	MinSamples     int           // samples before the first estimate; 0 selects 30
	WarmupSamples  int           // leading ramp samples excluded from the crucial interval; 0 selects 10
	MaxDuration    time.Duration // 0 selects 10 s
	AgreeThreshold float64       // relative agreement between lagged estimates; 0 selects 0.05
	AgreeLag       int           // samples between compared estimates; 0 selects 20 (one second)
	AgreeRounds    int           // consecutive agreeing comparisons to stop; 0 selects 5
	NewAlg         func() cc.Algorithm
}

// Name implements Prober.
func (f *FastBTS) Name() string { return "fastbts" }

// Run implements Prober.
func (f *FastBTS) Run(link *linksim.Link) Report {
	flows := f.Flows
	if flows <= 0 {
		flows = 4
	}
	warmup := f.WarmupSamples
	if warmup <= 0 {
		warmup = 10
	}
	minSamples := f.MinSamples
	if minSamples <= 0 {
		minSamples = 30
	}
	maxDur := f.MaxDuration
	if maxDur <= 0 {
		maxDur = 10 * time.Second
	}
	agreeThresh := f.AgreeThreshold
	if agreeThresh <= 0 {
		agreeThresh = 0.05
	}
	agreeRounds := f.AgreeRounds
	if agreeRounds <= 0 {
		agreeRounds = 5
	}
	agreeLag := f.AgreeLag
	if agreeLag <= 0 {
		agreeLag = 20
	}
	newAlg := f.NewAlg
	if newAlg == nil {
		newAlg = func() cc.Algorithm { return cc.NewCubic(0) }
	}

	agg := newAggregate(link, newAlg)
	defer agg.close()
	for i := 0; i < flows; i++ {
		agg.addFlow()
	}

	start := link.Now()
	var samples []float64
	var settled []float64 // samples[warmup:] kept ascending, for estimate.CrucialSorted
	var share []float64   // estimate.CrucialSorted's scratch, as long as settled
	var history []float64 // crucial-interval estimate per sample index
	agree := 0
	for link.Now()-start < maxDur {
		for i := 0; i < ticksPerSample; i++ {
			agg.step()
		}
		s := agg.sample()
		samples = append(samples, s)
		if len(samples) > warmup {
			at, _ := slices.BinarySearch(settled, s)
			settled = slices.Insert(settled, at, s)
			share = append(share, 0)
		}
		if len(samples) < minSamples {
			history = append(history, 0)
			continue
		}
		est := estimate.CrucialSorted(settled, share)
		history = append(history, est)
		// Compare against the estimate one lag window ago: while the TCP
		// ramp is still growing the lagged estimate trails the current one,
		// so the test keeps probing until growth levels off.
		if lagIdx := len(history) - 1 - agreeLag; lagIdx >= 0 && history[lagIdx] > 0 && est > 0 {
			rel := est/history[lagIdx] - 1
			if rel < 0 {
				rel = -rel
			}
			if rel <= agreeThresh {
				agree++
			} else {
				agree = 0
			}
		}
		if agree >= agreeRounds {
			return Report{
				Result:   est,
				Duration: link.Now() - start,
				DataMB:   agg.totalBytes() / 1e6,
				Samples:  samples,
				Flows:    flows,
			}
		}
	}
	var result float64
	if len(samples) > warmup {
		result = estimate.CrucialSorted(settled, share)
	} else {
		result = estimate.CrucialInterval(samples)
	}
	return Report{
		Result:   result,
		Duration: link.Now() - start,
		DataMB:   agg.totalBytes() / 1e6,
		Samples:  samples,
		Flows:    flows,
	}
}

// Speedtest reproduces the reference commercial architecture the paper
// benchmarks BTS-APP against (§2): the same probing-by-flooding pipeline but
// with Speedtest's 15-second window and its static filter (drop the top 10 %
// and bottom 25 % of samples, §5.1) instead of the 20-group trimming.
type Speedtest struct {
	// NewAlg constructs the per-connection congestion control; nil selects
	// CUBIC.
	NewAlg func() cc.Algorithm
}

// Name implements Prober.
func (s *Speedtest) Name() string { return "speedtest" }

// Run implements Prober.
func (s *Speedtest) Run(link *linksim.Link) Report {
	inner := &BTSApp{
		ProbeDuration: 15 * time.Second,
		NewAlg:        s.NewAlg,
	}
	rep := inner.Run(link)
	rep.Result = estimate.SpeedtestEstimate(rep.Samples)
	return rep
}
