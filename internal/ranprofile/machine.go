package ranprofile

import (
	"hash/fnv"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// Stream constants separating the machine's independent draw families. Each
// per-tick draw hashes (seed ^ stream ^ tick·γ), so adding a draw family
// never perturbs the others and replay is independent of draw order.
const (
	streamLeave   = 0x9d5c_17ab_3f68_42e1
	streamChoose  = 0x6b11_fa93_07c4_5d27
	streamHandCap = 0xc28f_60d5_991e_8b43
	streamHandRTT = 0x31e7_ad09_54f2_c6b5
)

// Transition is one recorded state change of a machine.
type Transition struct {
	// At is the virtual time of the change (a Tick multiple).
	At time.Duration
	// From and To name the states.
	From, To string
	// Handover marks transitions that completed a cell swap; the factors
	// below are the new cell's, and hold until the next handover.
	Handover                     bool
	CellCapFactor, CellRTTFactor float64
}

// LinkMetrics are the per-link RAN observability instruments, registered on
// a shared obs registry so every profiled link in a process aggregates into
// one view.
type LinkMetrics struct {
	// StateDwell observes the dwell time (seconds) of every state the
	// machine leaves.
	StateDwell *obs.Histogram
	// Handovers counts completed cell swaps.
	Handovers *obs.Counter
}

// NewLinkMetrics registers (or finds) the RAN link instruments on reg.
// Returns nil when reg is nil; a nil *LinkMetrics disables recording.
func NewLinkMetrics(reg *obs.Registry) *LinkMetrics {
	if reg == nil {
		return nil
	}
	return &LinkMetrics{
		StateDwell: reg.Histogram("swiftest_link_state_dwell_seconds",
			"Dwell time of RAN link states at exit (s).",
			[]float64{0.05, 0.1, 0.25, 0.5, 1, 2, 4, 8, 16}),
		Handovers: reg.Counter("swiftest_link_handovers_total",
			"Completed inter-cell handovers across profiled links."),
	}
}

// MachineOptions attach observability to a machine. The zero value records
// nothing beyond the in-memory transition log.
type MachineOptions struct {
	// Trace receives EventLinkStateChange / EventHandover events stamped
	// with the machine's virtual time.
	Trace *obs.Trace
	// Metrics receives dwell observations and handover counts.
	Metrics *LinkMetrics
}

// Machine replays a profile's state chain under a seed. It advances in
// emulator ticks: At(t) steps the chain to tick ⌊t/Tick⌋ and reports the
// operating point there. Time never rewinds — callers query monotonically,
// matching the emulator's Advance loop. A Machine is not safe for
// concurrent use; each link owns one.
type Machine struct {
	profile *Profile
	seed    uint64
	opts    MachineOptions

	// edges[i] is state i's departure distribution as cumulative
	// probability thresholds, compiled from the profile in States order (a
	// slice walk with map lookups — never a map range into ordered sinks).
	edges [][]weightedEdge
	// leave[i] is state i's per-tick leave probability, min(Tick/mean
	// dwell, 1), compiled once so a tick only draws against it.
	leave []float64

	tick      int // last decided tick
	stateIdx  int
	enteredAt time.Duration
	capFactor float64
	rttFactor float64
	current   linksim.LinkState

	handovers   int
	transitions []Transition
}

type weightedEdge struct {
	cum float64 // cumulative probability threshold in (0,1]
	to  int
}

// NewMachine compiles profile into a replayable chain. The seed is mixed
// with the profile name, so sweeping one seed across a profile library
// still gives every profile an independent draw stream.
func NewMachine(profile *Profile, seed int64, opts MachineOptions) *Machine {
	h := fnv.New64a()
	h.Write([]byte(profile.Name))
	m := &Machine{
		profile:   profile,
		seed:      stats.SplitMix64(uint64(seed) ^ h.Sum64()),
		opts:      opts,
		stateIdx:  profile.stateIndex(profile.Initial),
		capFactor: 1,
		rttFactor: 1,
	}
	m.edges = make([][]weightedEdge, len(profile.States))
	m.leave = make([]float64, len(profile.States))
	for i, s := range profile.States {
		m.leave[i] = min(linksim.Tick.Seconds()*1e3/s.MeanDwellMillis, 1)
		outs := profile.Transitions[s.Name]
		if len(outs) == 0 {
			continue // absorbing state
		}
		var total float64
		for j := range profile.States {
			total += outs[profile.States[j].Name]
		}
		var cum float64
		for j := range profile.States {
			w := outs[profile.States[j].Name]
			if w <= 0 {
				continue
			}
			cum += w / total
			m.edges[i] = append(m.edges[i], weightedEdge{cum: cum, to: j})
		}
	}
	m.current = profile.linkState(m.stateIdx, 1, 1)
	return m
}

// draw returns a uniform in [0,1) keyed by (seed, stream, tick).
func (m *Machine) draw(stream uint64, tick int) float64 {
	return stats.Uniform01(stats.SplitMix64(m.seed ^ stream ^ uint64(tick)*stats.SplitMix64Gamma))
}

// At steps the chain to tick ⌊at/Tick⌋ and reports the link state there.
// It is the linksim.Config.StateHook shape; pass m.At directly.
func (m *Machine) At(at time.Duration) linksim.LinkState {
	target := int(at / linksim.Tick)
	for m.tick < target {
		m.tick++
		m.decide(m.tick)
	}
	return m.current
}

// decide runs one tick of the chain: a geometric leave draw against the
// state's mean dwell, then a successor choice, then — when leaving the
// handover state — the new cell's factor draws.
func (m *Machine) decide(tick int) {
	edges := m.edges[m.stateIdx]
	if len(edges) == 0 {
		return // absorbing
	}
	if m.draw(streamLeave, tick) >= m.leave[m.stateIdx] {
		return
	}

	u := m.draw(streamChoose, tick)
	next := edges[len(edges)-1].to
	for _, e := range edges {
		if u < e.cum {
			next = e.to
			break
		}
	}

	now := time.Duration(tick) * linksim.Tick
	dwell := now - m.enteredAt
	from := m.profile.States[m.stateIdx].Name
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

func clampFactor(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Hook returns the machine's At method as a linksim state hook.
func (m *Machine) Hook() func(time.Duration) linksim.LinkState { return m.At }

// Activity counts the state transitions the chain made at times before
// `before`, and the completed cell swaps among them. A link that has
// advanced to virtual time t has stepped its machine to t − Tick, so
// Activity(t) is what a test that stopped at t went through, however far
// the link ran on for another test sharing it.
func (m *Machine) Activity(before time.Duration) (stateChanges, handovers int) {
	stateChanges, handovers = len(m.transitions), m.handovers
	for i := len(m.transitions) - 1; i >= 0 && m.transitions[i].At >= before; i-- {
		stateChanges--
		if m.transitions[i].Handover {
			handovers--
		}
	}
	return stateChanges, handovers
}
