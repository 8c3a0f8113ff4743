package baseline

import (
	"math"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/gmm"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// TCPSwiftest is the §7 design alternative: data-driven probing realised
// *without* giving up TCP. Instead of UDP pacing, the sender keeps a
// congestion window that is jump-started at the model's most probable mode
// (skipping slow start), escalates through larger modes while the link is
// unsaturated, but responds to loss with multiplicative decrease and
// additive recovery — retaining TCP's fairness properties. The paper notes
// this is feasible but requires heavy congestion-control surgery; this
// implementation lets the repository quantify the trade-off (see the
// AblationTCPVariant benchmark).
type TCPSwiftest struct {
	// Model is the bandwidth prior; required.
	Model *gmm.Model
}

const (
	// tcpSwiftestMaxDuration bounds the test, as core.Config's default does.
	tcpSwiftestMaxDuration = 5 * time.Second
	// tcpSwiftestBeta is the multiplicative decrease on loss (CUBIC-friendly).
	tcpSwiftestBeta = 0.7
)

// Name implements Prober.
func (t *TCPSwiftest) Name() string { return "swiftest-tcp" }

// Run implements Prober.
func (t *TCPSwiftest) Run(link *linksim.Link) Report {
	if t.Model == nil {
		return Report{}
	}

	// One paced flow and no CC sender: the window below is the sender.
	agg := newAggregate(link)
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
