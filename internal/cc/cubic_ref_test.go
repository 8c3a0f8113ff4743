package cc

import (
	"math"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/linksim"
)

// cubicTickRef is Cubic.Tick as it stood before K was cached and the tick
// length became a constant: a cube root and a math.Pow on every
// congestion-avoidance tick, and Tick.Seconds() in every ACK count. It
// ignores c.k, so it is the reference the cached form must equal bit for bit.
func cubicTickRef(c *Cubic, fb Feedback) float64 {
	ackedPackets := func(fb Feedback, ackDelay float64) float64 {
		bytes := fb.Achieved * 1e6 * linksim.Tick.Seconds() / 8
		return bytes / PacketBytes / ackDelay
	}
	c.elapsed += linksim.Tick
	if c.minRTT == 0 || fb.RTT < c.minRTT {
		c.minRTT = fb.RTT
	}
	switch {
	case fb.Loss:
		c.wmax = c.cwnd
		c.cwnd = math.Max(c.cwnd*cubicBeta, 2)
		c.slow = false
		c.epochStart = c.elapsed
	case c.slow:
		c.cwnd += gainCubic * ackedPackets(fb, ackDelayFactor)
		thresh := c.minRTT + maxDuration(4*time.Millisecond, c.minRTT/8)
		if fb.RTT > thresh {
			c.slow = false
			c.wmax = c.cwnd
			c.epochStart = c.elapsed
		}
	default:
		t := (c.elapsed - c.epochStart).Seconds()
		k := math.Cbrt(c.wmax * (1 - cubicBeta) / cubicC)
		target := cubicC*math.Pow(t-k, 3) + c.wmax
		acked := ackedPackets(fb, ackDelayFactor)
		if target > c.cwnd {
			c.cwnd = math.Min(target, c.cwnd+acked)
		} else {
			c.cwnd += acked / c.cwnd
		}
	}
	if c.cwnd < 2 {
		c.cwnd = 2
	}
	return windowRate(c.cwnd, fb.RTT)
}

// TestCubicTickMatchesReference floods a link for 10 s with four CUBIC
// connections, driving each Tick directly as the probers do, and shadows each
// with the reference body on the identical feedback. Every offered rate must
// be == — the campaign digests rest on it.
func TestCubicTickMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		cfg  linksim.Config
	}{
		// Capacity drops from 120 to 40 Mbit/s for the last 200 ms of every
		// second, shrinking a shallow buffer with it: windows that regrew
		// on 120 overflow at the next drop whatever the noise draws, so every
		// loss is congestion and reductions recur through the run.
		{"overflow", linksim.Config{BufferBDP: 0.5, StateHook: func(at time.Duration) linksim.LinkState {
			st := linksim.LinkState{CapacityMbps: 120, RTT: 30 * time.Millisecond, Fluctuation: 0.05}
			if at%time.Second >= 800*time.Millisecond {
				st.CapacityMbps = 40
			}
			return st
		}}},
		// A deep buffer with random wireless loss: reductions land at arbitrary
		// points of the cubic curve, on both sides of K.
		{"spurious", linksim.Config{CapacityMbps: 400, RTT: 45 * time.Millisecond, Fluctuation: 0.08, LossRate: 0.004, BufferBDP: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			link := linksim.MustNew(tc.cfg, 17)
			const flows = 4
			var (
				fl  [flows]*linksim.Flow
				got [flows]*Cubic
				ref [flows]*Cubic
			)
			for i := range fl {
				got[i], ref[i] = NewCubic(), NewCubic()
				fl[i] = link.NewFlow()
				fl[i].SetOffered(InitialRate(link.RTT()))
			}
			var losses, concave, convex int
			for tick := 0; tick < int(10*time.Second/linksim.Tick); tick++ {
				link.Advance()
				rtt := link.RTT()
				for i, f := range fl {
					fb := Feedback{Achieved: f.Achieved(), Loss: f.LossSignal(), RTT: rtt}
					if fb.Loss {
						losses++
					} else if !got[i].slow {
						// The tick about to run evaluates (t−K)³ at this t.
						if (got[i].elapsed + linksim.Tick - got[i].epochStart).Seconds() < got[i].k {
							concave++
						} else {
							convex++
						}
					}
					rate := got[i].Tick(fb)
					f.SetOffered(rate)
					if want := cubicTickRef(ref[i], fb); rate != want {
						t.Fatalf("tick %d flow %d: offered %v, reference %v", tick, i, rate, want)
					}
					if got[i].cwnd != ref[i].cwnd || got[i].wmax != ref[i].wmax {
						t.Fatalf("tick %d flow %d: state (cwnd %v, wmax %v), reference (%v, %v)",
							tick, i, got[i].cwnd, got[i].wmax, ref[i].cwnd, ref[i].wmax)
					}
				}
			}
			if losses == 0 || concave == 0 || convex == 0 {
				t.Fatalf("stream too tame to prove anything: %d losses, %d ticks with t<K, %d with t>=K", losses, concave, convex)
			}
		})
	}
}
