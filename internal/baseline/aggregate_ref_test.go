package baseline

import (
	"math"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/cc"
	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// refSender is cc.Sender as it stood before the probers called CUBIC
// directly: it drives one flow through the Algorithm interface and reads the
// flow's own RTT on every step. Only the Feedback's Tick field is gone, since
// every algorithm now ticks by linksim.Tick.
type refSender struct {
	Flow *linksim.Flow
	Alg  cc.Algorithm
}

func newRefSender(flow *linksim.Flow, alg cc.Algorithm) *refSender {
	flow.SetOffered(cc.InitialRate(flow.RTT()))
	return &refSender{Flow: flow, Alg: alg}
}

func (s *refSender) Step() {
	fb := cc.Feedback{
		Achieved: s.Flow.Achieved(),
		Loss:     s.Flow.LossSignal(),
		RTT:      s.Flow.RTT(),
	}
	s.Flow.SetOffered(s.Alg.Tick(fb))
}

// refAggregate is aggregate as it stood before it held its CUBIC senders by
// their concrete type: one refSender per flow, each stepped through the
// interface after every Advance.
type refAggregate struct {
	link    *linksim.Link
	senders []*refSender
	flows   []*linksim.Flow

	lastBytes float64
	lastAt    time.Duration
}

func newRefAggregate(link *linksim.Link) *refAggregate {
	return &refAggregate{link: link, lastAt: link.Now()}
}

// addFlow opens one more TCP connection running CUBIC, the dominant server
// default.
func (a *refAggregate) addFlow() {
	f := a.link.NewFlow()
	a.flows = append(a.flows, f)
	a.senders = append(a.senders, newRefSender(f, cc.NewCubic()))
}

// step advances one tick of the connection set.
func (a *refAggregate) step() {
	a.link.Advance()
	for _, s := range a.senders {
		s.Step()
	}
}

// totalBytes reports cumulative delivered bytes across all connections.
func (a *refAggregate) totalBytes() float64 {
	var b float64
	for _, f := range a.flows {
		b += f.DeliveredBytes()
	}
	return b
}

// sample returns the aggregate throughput (Mbps) since the previous sample.
func (a *refAggregate) sample() float64 {
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
func (a *refAggregate) close() {
	for _, f := range a.flows {
		f.Close()
	}
}

// The probers' Run bodies as they stood, on a refAggregate.

func refBTSApp(link *linksim.Link) Report {
	ladder := estimate.BTSAppScaleLadder()
	agg := newRefAggregate(link)
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

func refFAST(link *linksim.Link) Report {
	agg := newRefAggregate(link)
	defer agg.close()
	for i := 0; i < floodFlows; i++ {
		agg.addFlow()
	}

	start := link.Now()
	var samples []float64
	for link.Now()-start < fastMaxDuration {
		for i := 0; i < ticksPerSample; i++ {
			agg.step()
		}
		samples = append(samples, agg.sample())
		if link.Now()-start >= fastMinDuration && len(samples) >= fastWindow {
			tail := samples[len(samples)-fastWindow:]
			if estimate.Stable(tail, estimate.StableThreshold) {
				return Report{
					Result:   stats.Mean(tail),
					Duration: link.Now() - start,
					DataMB:   agg.totalBytes() / 1e6,
					Samples:  samples,
					Flows:    floodFlows,
				}
			}
		}
	}
	// Timed out without stability: report the stable-window mean anyway.
	tail := samples
	if len(tail) > fastWindow {
		tail = samples[len(samples)-fastWindow:]
	}
	return Report{
		Result:   stats.Mean(tail),
		Duration: link.Now() - start,
		DataMB:   agg.totalBytes() / 1e6,
		Samples:  samples,
		Flows:    floodFlows,
	}
}

func refFastBTS(link *linksim.Link) Report {
	agg := newRefAggregate(link)
	defer agg.close()
	for i := 0; i < floodFlows; i++ {
		agg.addFlow()
	}

	start := link.Now()
	var samples []float64
	var rule estimate.FastBTSStop
	report := func(result float64) Report {
		return Report{
			Result:   result,
			Duration: link.Now() - start,
			DataMB:   agg.totalBytes() / 1e6,
			Samples:  samples,
			Flows:    floodFlows,
		}
	}
	for link.Now()-start < fastBTSMaxDuration {
		for i := 0; i < ticksPerSample; i++ {
			agg.step()
		}
		s := agg.sample()
		samples = append(samples, s)
		if est, streak, _ := rule.Add(s); streak >= estimate.FastBTSAgreeRounds {
			return report(est)
		}
	}
	return report(rule.Estimate())
}

func refTCPSwiftest(t *TCPSwiftest, link *linksim.Link) Report {
	if t.Model == nil {
		return Report{}
	}

	// One paced flow and no CC sender: the window below is the sender.
	agg := newRefAggregate(link)
	defer agg.close()
	flow := link.NewFlow()
	agg.flows = append(agg.flows, flow)

	// Jump start: the window carries the most probable modal rate.
	rate := t.Model.MostProbableMode().Rate
	target := rate         // the current modal probing target
	ceiling := math.Inf(1) // loss-learned saturation point (ssthresh analog)
	flow.SetOffered(rate)

	start := link.Now()
	var samples []float64
	settle := 2
	recoverPerSample := 0.0 // additive-increase step after a loss backoff
	for link.Now()-start < tcpSwiftestMaxDuration {
		lossSeen := false
		for i := 0; i < ticksPerSample; i++ {
			link.Advance()
			if flow.LossSignal() {
				lossSeen = true
			}
		}
		s := agg.sample()
		samples = append(samples, s)
		if settle > 0 {
			settle--
		}

		switch {
		case lossSeen:
			// TCP-fair response: multiplicative decrease anchored on the
			// *delivered* rate (the ACK clock), not the possibly inflated
			// probing rate, then additive recovery. Like ssthresh, the loss
			// also caps the recovery target just above the delivered rate —
			// without this memory the probe saws between backoff and an
			// inflated modal target forever and never satisfies the 3 %
			// convergence criterion.
			delivered := rate
			if s > 0 && s < delivered {
				delivered = s
			}
			rate = delivered * tcpSwiftestBeta
			if c := delivered * 1.02; c < ceiling {
				ceiling = c
			}
			if target > ceiling {
				target = ceiling
			}
			recoverPerSample = (target - rate) / 10
			if recoverPerSample < 0 {
				recoverPerSample = 0
			}
		case rate < target:
			rate += recoverPerSample
			if rate > target {
				rate = target
			}
		}
		flow.SetOffered(rate)

		// Convergence identical to the UDP engine.
		if tail := estimate.Tail(samples); len(tail) == estimate.Window && estimate.Stable(tail, estimate.StableThreshold) {
			return Report{
				Result:   stats.Mean(tail),
				Duration: link.Now() - start,
				DataMB:   flow.DeliveredBytes() / 1e6,
				Samples:  samples,
				Flows:    1,
			}
		}

		// Saturation judgement and mode escalation (§5.1), gated on a clean
		// (loss-free) settled sample and capped at the loss-learned ceiling —
		// without the cap, escalation re-inflates the rate the last loss just
		// disproved and the probe enters a limit cycle.
		if settle == 0 && !lossSeen && s >= rate*(1-0.05) && rate < ceiling {
			next := rate * 1.25
			if mode, ok := t.Model.NextLargerMode(rate); ok {
				next = mode.Rate
			}
			if next > ceiling {
				next = ceiling
			}
			if next > rate {
				target = next
				rate = target
				flow.SetOffered(rate)
				settle = 2
			}
		}
	}
	return Report{
		Result:   stats.Mean(estimate.Tail(samples)),
		Duration: link.Now() - start,
		DataMB:   flow.DeliveredBytes() / 1e6,
		Samples:  samples,
		Flows:    1,
	}
}

// RunReference runs p's reference body on link. It is exported for the
// lockstep test in package baseline_test, which needs the campaign's fault
// plans from package exper.
func RunReference(p Prober, link *linksim.Link) Report {
	switch p := p.(type) {
	case *BTSApp:
		return refBTSApp(link)
	case *FAST:
		return refFAST(link)
	case *FastBTS:
		return refFastBTS(link)
	case *TCPSwiftest:
		return refTCPSwiftest(p, link)
	}
	panic("baseline: no reference for " + p.Name())
}
