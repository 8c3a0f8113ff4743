package ranprofile

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/obs"
)

func TestEmbeddedLibrary(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("library has %d profiles, want >= 8: %v", len(names), names)
	}
	for _, want := range []string{
		"4g-static", "4g-drive", "5g-static", "5g-drive",
		"wifi-congested-apartment", "elevator", "subway", "lte-rural",
	} {
		if _, err := Get(want); err != nil {
			t.Errorf("Get(%q): %v", want, err)
		}
	}
	if _, err := Get("no-such-profile"); err == nil {
		t.Error("Get of unknown profile succeeded")
	}
	for _, name := range names {
		p, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.NominalCapacityMbps() <= 0 {
			t.Errorf("profile %q has non-positive nominal capacity", p.Name)
		}
		for _, s := range p.States {
			if s.RTTMillis <= 0 {
				t.Errorf("profile %q state %q: RTT not defaulted", p.Name, s.Name)
			}
		}
	}
}

func TestParseRejectsBadLibraries(t *testing.T) {
	cases := map[string]string{
		"bad version":     `{"version": 2, "profiles": []}`,
		"unknown field":   `{"version": 1, "profiles": [], "extra": true}`,
		"unknown state":   `{"version": 1, "profiles": [{"name": "x", "tech": "4G", "initial": "good", "states": [{"name": "warp", "capacity_mbps": 1, "mean_dwell_ms": 100}], "transitions": {}}]}`,
		"bad initial":     `{"version": 1, "profiles": [{"name": "x", "tech": "4G", "initial": "fade", "states": [{"name": "good", "capacity_mbps": 1, "mean_dwell_ms": 100}], "transitions": {}}]}`,
		"self transition": `{"version": 1, "profiles": [{"name": "x", "tech": "4G", "initial": "good", "states": [{"name": "good", "capacity_mbps": 1, "mean_dwell_ms": 100}], "transitions": {"good": {"good": 1}}}]}`,
		"bad tech":        `{"version": 1, "profiles": [{"name": "x", "tech": "6G", "initial": "good", "states": [{"name": "good", "capacity_mbps": 1, "mean_dwell_ms": 100}], "transitions": {}}]}`,
		"zero dwell":      `{"version": 1, "profiles": [{"name": "x", "tech": "4G", "initial": "good", "states": [{"name": "good", "capacity_mbps": 1}], "transitions": {}}]}`,
		"duplicate name":  `{"version": 1, "profiles": [{"name": "x", "tech": "4G", "initial": "good", "states": [{"name": "good", "capacity_mbps": 1, "mean_dwell_ms": 100}], "transitions": {}}, {"name": "x", "tech": "4G", "initial": "good", "states": [{"name": "good", "capacity_mbps": 1, "mean_dwell_ms": 100}], "transitions": {}}]}`,
	}
	for label, doc := range cases {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: Parse accepted invalid library", label)
		}
	}
}

// runMachine advances a fresh machine through the given horizon tick by
// tick and returns its transition log.
func runMachine(t *testing.T, name string, seed int64, horizon time.Duration, opts MachineOptions) []Transition {
	t.Helper()
	p, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p, seed, opts)
	for at := time.Duration(0); at <= horizon; at += linksim.Tick {
		m.At(at)
	}
	return m.transitions
}

func TestMachineReplayIsByteIdentical(t *testing.T) {
	for _, name := range Names() {
		a := runMachine(t, name, 42, 30*time.Second, MachineOptions{})
		b := runMachine(t, name, 42, 30*time.Second, MachineOptions{})
		if len(a) != len(b) {
			t.Fatalf("%s: replay lengths differ: %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: transition %d differs: %+v vs %+v", name, i, a[i], b[i])
			}
		}
		if len(a) == 0 {
			t.Errorf("%s: no transitions over 30s — profile is inert", name)
		}
	}
}

func TestMachineSeedsDiverge(t *testing.T) {
	a := runMachine(t, "4g-drive", 1, 30*time.Second, MachineOptions{})
	b := runMachine(t, "4g-drive", 2, 30*time.Second, MachineOptions{})
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical transition traces")
	}
}

func TestMachineStridedQueriesAgree(t *testing.T) {
	p, err := Get("subway")
	if err != nil {
		t.Fatal(err)
	}
	fine := NewMachine(p, 7, MachineOptions{})
	coarse := NewMachine(p, 7, MachineOptions{})
	for at := time.Duration(0); at <= 20*time.Second; at += linksim.Tick {
		fine.At(at)
	}
	// Query every 50 ms (the sample interval) instead of every tick: the
	// chain must land in the same place because decisions key on tick, not
	// on how the caller strides.
	for at := time.Duration(0); at <= 20*time.Second; at += 5 * linksim.Tick {
		coarse.At(at)
	}
	fa, ca := fine.transitions, coarse.transitions
	if len(fa) != len(ca) {
		t.Fatalf("stride changed transition count: %d vs %d", len(fa), len(ca))
	}
	for i := range fa {
		if fa[i] != ca[i] {
			t.Fatalf("stride changed transition %d: %+v vs %+v", i, fa[i], ca[i])
		}
	}
}

func TestMachineHandoverSwapsCell(t *testing.T) {
	p, err := Get("5g-train")
	if err != nil {
		t.Fatal(err)
	}
	trace := obs.NewTrace(0)
	reg := obs.NewRegistry()
	m := NewMachine(p, 11, MachineOptions{Trace: trace, Metrics: NewLinkMetrics(reg)})
	for at := time.Duration(0); at <= 60*time.Second; at += linksim.Tick {
		m.At(at)
	}
	changes, handovers := m.Activity(time.Duration(math.MaxInt64))
	if handovers == 0 {
		t.Fatal("5g-train produced no handovers in 60s")
	}
	var sawSwap bool
	for _, tr := range m.transitions {
		if tr.Handover {
			if tr.From != StateHandover {
				t.Errorf("handover recorded leaving %q, want %q", tr.From, StateHandover)
			}
			if tr.CellCapFactor == 1 && tr.CellRTTFactor == 1 {
				continue // possible but vanishingly unlikely for every swap
			}
			sawSwap = true
		}
	}
	if !sawSwap {
		t.Error("no handover changed the cell factors")
	}

	var stateEvents, handoverEvents int
	for _, e := range trace.Events() {
		switch e.Kind {
		case obs.EventLinkStateChange:
			stateEvents++
			if !strings.Contains(e.Note, "->") {
				t.Errorf("state-change note %q missing from->to", e.Note)
			}
		case obs.EventHandover:
			handoverEvents++
			if e.Note != p.Name {
				t.Errorf("handover note = %q, want profile name %q", e.Note, p.Name)
			}
		}
	}
	if stateEvents != changes {
		t.Errorf("trace has %d state-change events, machine logged %d", stateEvents, changes)
	}
	if handoverEvents != handovers {
		t.Errorf("trace has %d handover events, machine counted %d", handoverEvents, handovers)
	}

	lm := NewLinkMetrics(reg)
	if got := lm.Handovers.Value(); got != uint64(handovers) {
		t.Errorf("handover counter = %d, want %d", got, handovers)
	}
	if lm.StateDwell.Count() != uint64(changes) {
		t.Errorf("dwell histogram observed %d, want %d", lm.StateDwell.Count(), changes)
	}
}

// TestActivityCountsToTheStop holds Activity(t) on a machine stepped far
// past t to the whole log of a twin stepped as a link that stopped at t
// steps it, to t − Tick, at every 50 ms stop of a minute of 5g-train. The
// twin moves forward from stop to stop, as a link does.
func TestActivityCountsToTheStop(t *testing.T) {
	p, err := Get("5g-train")
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 60 * time.Second
	long := NewMachine(p, 11, MachineOptions{})
	long.At(horizon)
	all, _ := long.Activity(horizon + linksim.Tick)
	if all == 0 {
		t.Fatal("5g-train made no transitions in 60s")
	}
	short := NewMachine(p, 11, MachineOptions{})
	for stop := linksim.SampleInterval; stop <= horizon; stop += linksim.SampleInterval {
		short.At(stop - linksim.Tick)
		wantChanges, wantHandovers := len(short.transitions), short.handovers
		if changes, handovers := long.Activity(stop); changes != wantChanges || handovers != wantHandovers {
			t.Fatalf("stop %v: Activity = (%d, %d), a machine stepped to the stop made (%d, %d)",
				stop, changes, handovers, wantChanges, wantHandovers)
		}
	}
}

func TestMachineDrivesLinkStates(t *testing.T) {
	p, err := Get("4g-static")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p, 3, MachineOptions{})
	seen := map[string]bool{}
	for at := time.Duration(0); at <= 30*time.Second; at += linksim.Tick {
		st := m.At(at)
		seen[st.Name] = true
		if st.CapacityMbps <= 0 {
			t.Fatalf("state %q reports non-positive capacity at %v", st.Name, at)
		}
		if st.RTT <= 0 {
			t.Fatalf("state %q reports non-positive RTT at %v", st.Name, at)
		}
	}
	if len(seen) < 2 {
		t.Errorf("chain visited only %v in 30s", seen)
	}
}

// BenchmarkProfileMachine measures the per-tick cost of the RAN state
// machine — the hook the link emulator calls every 10 ms of virtual time.
func BenchmarkProfileMachine(b *testing.B) {
	p, err := Get("5g-drive")
	if err != nil {
		b.Fatal(err)
	}
	m := NewMachine(p, 5, MachineOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.At(time.Duration(i) * 10 * time.Millisecond)
	}
}
