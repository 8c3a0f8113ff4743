package ranprofile

import (
	"math"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/obs"
)

// decideRef is Machine.decide as it stood before the leave probabilities
// were compiled: it copies the state and recomputes min(Tick/mean dwell, 1)
// on every tick.
func decideRef(m *Machine, tick int) {
	s := m.profile.States[m.stateIdx]
	if len(m.edges[m.stateIdx]) == 0 {
		return // absorbing
	}
	pLeave := linksim.Tick.Seconds() * 1e3 / s.MeanDwellMillis
	if pLeave > 1 {
		pLeave = 1
	}
	if m.draw(streamLeave, tick) >= pLeave {
		return
	}

	u := m.draw(streamChoose, tick)
	next := m.edges[m.stateIdx][len(m.edges[m.stateIdx])-1].to
	for _, e := range m.edges[m.stateIdx] {
		if u < e.cum {
			next = e.to
			break
		}
	}

	now := time.Duration(tick) * linksim.Tick
	dwell := now - m.enteredAt
	from := s.Name
	handover := from == StateHandover && m.profile.Handover != nil
	if handover {
		hs := m.profile.Handover
		m.capFactor = clampFactor(1+hs.CapacitySwing*(2*m.draw(streamHandCap, tick)-1), 0.25, 4)
		m.rttFactor = clampFactor(1+hs.RTTSwing*(2*m.draw(streamHandRTT, tick)-1), 0.5, 3)
		m.handovers++
	}

	m.stateIdx = next
	m.enteredAt = now
	m.current = m.profile.linkState(next, m.capFactor, m.rttFactor)
	to := m.profile.States[next].Name
	m.transitions = append(m.transitions, Transition{
		At: now, From: from, To: to,
		Handover: handover, CellCapFactor: m.capFactor, CellRTTFactor: m.rttFactor,
	})

	if mm := m.opts.Metrics; mm != nil {
		mm.StateDwell.Observe(dwell.Seconds())
		if handover {
			mm.Handovers.Add(1)
		}
	}
	if tr := m.opts.Trace; tr != nil {
		tr.Record(now, obs.EventLinkStateChange, m.current.CapacityMbps, dwell.Seconds(), from+"->"+to)
		if handover {
			tr.Record(now, obs.EventHandover, m.capFactor, m.rttFactor, m.profile.Name)
		}
	}
}

// TestDecideMatchesReference replays every library profile at 20 seeds for
// 3000 ticks, once through At and once through decideRef, and wants the
// state, the transition list and the handover factors equal at every tick.
func TestDecideMatchesReference(t *testing.T) {
	for _, name := range Names() {
		p, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		transitions, handovers := 0, 0
		for seed := int64(1); seed <= 20; seed++ {
			m, ref := NewMachine(p, seed, MachineOptions{}), NewMachine(p, seed, MachineOptions{})
			for tick := 1; tick <= 3000; tick++ {
				state := m.At(time.Duration(tick) * linksim.Tick)
				ref.tick = tick
				decideRef(ref, tick)
				if state != ref.current || m.stateIdx != ref.stateIdx || m.enteredAt != ref.enteredAt {
					t.Fatalf("%s seed %d tick %d: state %+v (index %d), reference %+v (index %d)",
						name, seed, tick, state, m.stateIdx, ref.current, ref.stateIdx)
				}
				if math.Float64bits(m.capFactor) != math.Float64bits(ref.capFactor) ||
					math.Float64bits(m.rttFactor) != math.Float64bits(ref.rttFactor) || m.handovers != ref.handovers {
					t.Fatalf("%s seed %d tick %d: cell factors (%v, %v) after %d handovers, reference (%v, %v) after %d",
						name, seed, tick, m.capFactor, m.rttFactor, m.handovers, ref.capFactor, ref.rttFactor, ref.handovers)
				}
				// The lists only grow, so comparing the newest entry every
				// tick compares the whole list.
				if n := len(m.transitions); n != len(ref.transitions) {
					t.Fatalf("%s seed %d tick %d: %d transitions, reference %d", name, seed, tick, n, len(ref.transitions))
				} else if n > 0 && m.transitions[n-1] != ref.transitions[n-1] {
					t.Fatalf("%s seed %d tick %d: transition %+v, reference %+v", name, seed, tick, m.transitions[n-1], ref.transitions[n-1])
				}
			}
			transitions += len(m.transitions)
			handovers += m.handovers
		}
		if transitions == 0 {
			t.Errorf("%s: no transitions in 20 × 3000 ticks — nothing compared", name)
		}
		if p.Handover != nil && handovers == 0 {
			t.Errorf("%s: no handovers in 20 × 3000 ticks — the cell factors were not compared", name)
		}
	}
}
