// Package ranprofile is the empirical RAN scenario library: seeded
// multi-state profiles of how mobile access links actually behave — fades,
// handovers, base-station sleep, sector congestion — in the style of
// ERRANT's per-(operator, tech, mobility) empirical profiles.
//
// A Profile is a continuous-time-ish Markov chain over named link states
// (good / fade / handover / sleep / congested), each state carrying the
// capacity, RTT, loss and jitter parameters the link emulator applies while
// the state holds. A Machine steps the chain once per emulator tick; every
// random draw is a splitmix64 hash of (seed, tick, stream), so a
// (profile, seed) pair replays a byte-identical state-transition trace on
// every rerun, on every platform, at any worker count — the same
// determinism contract the rest of the repository's experiment substrate
// pins with golden digests.
//
// Leaving the handover state completes a handover: the machine draws a new
// cell's capacity and RTT factors that persist until the next handover, so
// a mid-test handover durably swaps the link's operating point — the
// behaviour drive tests observe when a phone is handed between cells.
//
// The built-in library (profiles.json, embedded) ships named profiles for
// the scenarios the paper and its successors study: 4G/5G static and
// drive, WiFi under apartment congestion, elevators, subways, rural LTE.
// Custom libraries load through Parse.
package ranprofile

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/dataset"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
)

// The canonical state vocabulary. Profiles may only use these names, so
// every consumer (traces, dwell metrics, campaign tables) shares one
// vocabulary.
const (
	StateGood      = "good"      // the link's nominal operating point
	StateFade      = "fade"      // signal fade: reduced capacity, inflated RTT
	StateHandover  = "handover"  // inter-cell handover interruption
	StateSleep     = "sleep"     // base-station sleeping (§3.3's 5G AAU shutdown)
	StateCongested = "congested" // sector/AP congestion from contending users
)

// knownStates is the closed vocabulary, for validation.
var knownStates = map[string]bool{
	StateGood: true, StateFade: true, StateHandover: true,
	StateSleep: true, StateCongested: true,
}

// State is one link state of a profile: the operating point the emulator
// applies while the chain sits in this state.
type State struct {
	// Name is one of the canonical state names above.
	Name string `json:"name"`
	// CapacityMbps is the bottleneck capacity in this state.
	CapacityMbps float64 `json:"capacity_mbps"`
	// RTTMillis is the base RTT in milliseconds; zero selects the midpoint
	// of the profile technology's dataset RTT range (one table, no drift).
	RTTMillis float64 `json:"rtt_ms,omitempty"`
	// Loss is the per-tick spurious loss probability in this state.
	Loss float64 `json:"loss,omitempty"`
	// Jitter is the relative capacity-noise s.d. in this state (the
	// emulator's AR(1) fluctuation parameter).
	Jitter float64 `json:"jitter,omitempty"`
	// MeanDwellMillis is the state's mean dwell time; departures are
	// geometric per tick with probability Tick/MeanDwell, approximating an
	// exponential sojourn.
	MeanDwellMillis float64 `json:"mean_dwell_ms"`
}

// HandoverSpec shapes the durable cell swap applied when the chain leaves
// the handover state: the new cell's capacity and RTT are the profile's
// state parameters scaled by factors drawn uniformly from 1 ± swing.
type HandoverSpec struct {
	CapacitySwing float64 `json:"capacity_swing"`
	RTTSwing      float64 `json:"rtt_swing"`
}

// Profile is one named multi-state RAN scenario.
type Profile struct {
	// Name identifies the profile ("4g-drive", "subway", ...).
	Name string `json:"name"`
	// Tech is the access technology: "3G", "4G", "5G" or "WiFi".
	Tech string `json:"tech"`
	// Description is a one-line human summary for listings.
	Description string `json:"description,omitempty"`
	// Initial names the state the chain starts in.
	Initial string `json:"initial"`
	// States are the profile's link states.
	States []State `json:"states"`
	// Transitions maps a state name to its departure distribution: relative
	// weights over successor states, normalised at compile time. States
	// without an entry are absorbing.
	Transitions map[string]map[string]float64 `json:"transitions"`
	// Handover, when non-nil, enables the durable cell swap on leaving the
	// handover state.
	Handover *HandoverSpec `json:"handover,omitempty"`
}

// DatasetTech maps the profile's technology string onto the dataset enum.
func (p *Profile) DatasetTech() dataset.Tech {
	switch p.Tech {
	case "3G":
		return dataset.Tech3G
	case "4G", "LTE":
		return dataset.Tech4G
	case "5G", "NR":
		return dataset.Tech5G
	default:
		return dataset.TechWiFi
	}
}

// NominalCapacityMbps reports the profile's best-state capacity — the scale
// reference for callers that modulate an absolute budget (e.g. a server
// uplink) by the profile's relative shape.
func (p *Profile) NominalCapacityMbps() float64 {
	var best float64
	for _, s := range p.States {
		if s.CapacityMbps > best {
			best = s.CapacityMbps
		}
	}
	return best
}

// stateIndex reports the index of the named state, or -1.
func (p *Profile) stateIndex(name string) int {
	for i, s := range p.States {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks the profile's structure and normalises defaulted fields:
// state RTTs left at zero are filled from the dataset technology table.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("ranprofile: profile with empty name")
	}
	switch p.Tech {
	case "3G", "4G", "LTE", "5G", "NR", "WiFi":
	default:
		return fmt.Errorf("ranprofile: profile %q: unknown tech %q", p.Name, p.Tech)
	}
	if len(p.States) == 0 {
		return fmt.Errorf("ranprofile: profile %q has no states", p.Name)
	}
	seen := map[string]bool{}
	for i := range p.States {
		s := &p.States[i]
		if !knownStates[s.Name] {
			return fmt.Errorf("ranprofile: profile %q: state %q outside the good/fade/handover/sleep/congested vocabulary", p.Name, s.Name)
		}
		if seen[s.Name] {
			return fmt.Errorf("ranprofile: profile %q: duplicate state %q", p.Name, s.Name)
		}
		seen[s.Name] = true
		if s.CapacityMbps <= 0 {
			return fmt.Errorf("ranprofile: profile %q state %q: capacity %g Mbps must be positive", p.Name, s.Name, s.CapacityMbps)
		}
		if s.RTTMillis == 0 {
			s.RTTMillis = float64(dataset.TechRTTMid(p.DatasetTech())) / float64(time.Millisecond)
		}
		if s.RTTMillis < 0 {
			return fmt.Errorf("ranprofile: profile %q state %q: negative RTT", p.Name, s.Name)
		}
		if s.Loss < 0 || s.Loss >= 1 {
			return fmt.Errorf("ranprofile: profile %q state %q: loss %g out of [0,1)", p.Name, s.Name, s.Loss)
		}
		if s.Jitter < 0 {
			return fmt.Errorf("ranprofile: profile %q state %q: negative jitter", p.Name, s.Name)
		}
		if s.MeanDwellMillis <= 0 {
			return fmt.Errorf("ranprofile: profile %q state %q: mean dwell %g ms must be positive", p.Name, s.Name, s.MeanDwellMillis)
		}
	}
	if p.stateIndex(p.Initial) < 0 {
		return fmt.Errorf("ranprofile: profile %q: initial state %q is not declared", p.Name, p.Initial)
	}
	for from, outs := range p.Transitions {
		if p.stateIndex(from) < 0 {
			return fmt.Errorf("ranprofile: profile %q: transitions from undeclared state %q", p.Name, from)
		}
		var total float64
		for to, w := range outs {
			if p.stateIndex(to) < 0 {
				return fmt.Errorf("ranprofile: profile %q: transition %s->%s targets an undeclared state", p.Name, from, to)
			}
			if to == from {
				return fmt.Errorf("ranprofile: profile %q: self-transition on %q (dwell already models staying)", p.Name, from)
			}
			if w < 0 {
				return fmt.Errorf("ranprofile: profile %q: negative weight on %s->%s", p.Name, from, to)
			}
			total += w
		}
		if total <= 0 {
			return fmt.Errorf("ranprofile: profile %q: state %q has no positive outgoing weight", p.Name, from)
		}
	}
	if p.Handover != nil {
		if hs := p.Handover; hs.CapacitySwing < 0 || hs.CapacitySwing >= 1 || hs.RTTSwing < 0 || hs.RTTSwing >= 1 {
			return fmt.Errorf("ranprofile: profile %q: handover swings must lie in [0,1)", p.Name)
		}
	}
	return nil
}

// linkState renders one state as the emulator operating point, under the
// current cell factors.
func (p *Profile) linkState(idx int, capFactor, rttFactor float64) linksim.LinkState {
	s := p.States[idx]
	return linksim.LinkState{
		Name:         s.Name,
		CapacityMbps: s.CapacityMbps * capFactor,
		RTT:          time.Duration(s.RTTMillis * rttFactor * float64(time.Millisecond)),
		LossRate:     s.Loss,
		Fluctuation:  s.Jitter,
	}
}

// libraryFile is the embedded library's JSON envelope.
type libraryFile struct {
	Version  int        `json:"version"`
	Profiles []*Profile `json:"profiles"`
}

// Parse decodes and validates a profile library from JSON (the embedded
// schema: {"version": 1, "profiles": [...]}). Unknown fields are rejected
// so schema typos fail loudly.
func Parse(data []byte) ([]*Profile, error) {
	var lib libraryFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&lib); err != nil {
		return nil, fmt.Errorf("ranprofile: parsing library: %w", err)
	}
	if lib.Version != 1 {
		return nil, fmt.Errorf("ranprofile: unsupported library version %d", lib.Version)
	}
	names := map[string]bool{}
	for _, p := range lib.Profiles {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if names[p.Name] {
			return nil, fmt.Errorf("ranprofile: duplicate profile %q", p.Name)
		}
		names[p.Name] = true
	}
	return lib.Profiles, nil
}

//go:embed profiles.json
var embeddedLibrary []byte

var builtins struct {
	sync.Once
	byName map[string]*Profile
	names  []string
	err    error
}

func loadBuiltins() error {
	builtins.Do(func() {
		profiles, err := Parse(embeddedLibrary)
		if err != nil {
			builtins.err = fmt.Errorf("ranprofile: embedded library: %w", err)
			return
		}
		builtins.byName = make(map[string]*Profile, len(profiles))
		for _, p := range profiles {
			builtins.byName[p.Name] = p
			builtins.names = append(builtins.names, p.Name)
		}
		sort.Strings(builtins.names)
	})
	return builtins.err
}

// Names lists the built-in profile library, sorted.
func Names() []string {
	if err := loadBuiltins(); err != nil {
		panic(err) // the embedded library is compiled in; failing to parse it is a build defect
	}
	return append([]string(nil), builtins.names...)
}

// Get returns the named built-in profile. The returned profile is shared;
// callers must not mutate it.
func Get(name string) (*Profile, error) {
	if err := loadBuiltins(); err != nil {
		return nil, err
	}
	p, ok := builtins.byName[name]
	if !ok {
		return nil, fmt.Errorf("ranprofile: unknown profile %q (known: %v)", name, builtins.names)
	}
	return p, nil
}
