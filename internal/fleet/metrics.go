package fleet

import (
	"fmt"

	"github.com/mobilebandwidth/swiftest/internal/obs"
)

// fleetMetrics bundles the control plane's observable surface. Every field
// may be nil (a nil obs.Registry hands out nil metrics whose updates no-op),
// and a nil *fleetMetrics is itself safe — instrumentation never gates
// behaviour.
type fleetMetrics struct {
	reg *obs.Registry

	serversLive     *obs.Gauge
	serversDraining *obs.Gauge
	serversDead     *obs.Gauge

	assignmentsTotal *obs.Counter
	rejectedTotal    *obs.Counter
	failoversTotal   *obs.Counter
	drainsTotal      *obs.Counter
	deadTotal        *obs.Counter

	// Per-server gauges, indexed by registry server ID (append-only, like
	// the registry's server table).
	sessions []*obs.Gauge
	loadMbps []*obs.Gauge
}

// newFleetMetrics wires the fleet series into reg; a nil reg produces a
// fully disabled (but non-nil) instance.
func newFleetMetrics(reg *obs.Registry) *fleetMetrics {
	return &fleetMetrics{
		reg:             reg,
		serversLive:     reg.Gauge("swiftest_fleet_servers_live", "Fleet servers currently live and accepting assignments."),
		serversDraining: reg.Gauge("swiftest_fleet_servers_draining", "Fleet servers draining: finishing in-flight tests, refusing new ones."),
		serversDead:     reg.Gauge("swiftest_fleet_servers_dead", "Fleet servers declared dead by the K-silent-windows heartbeat rule."),

		assignmentsTotal: reg.Counter("swiftest_fleet_assignments_total", "Dispatch decisions that admitted a client to a server."),
		rejectedTotal:    reg.Counter("swiftest_fleet_rejected_total", "Dispatch requests rejected (fleet saturated or no live servers)."),
		failoversTotal:   reg.Counter("swiftest_fleet_failovers_total", "Sessions reassigned to an alternate server after their primary died."),
		drainsTotal:      reg.Counter("swiftest_fleet_drains_total", "Drain requests accepted by the registry."),
		deadTotal:        reg.Counter("swiftest_fleet_servers_dead_total", "Server death events (K consecutive silent heartbeat windows)."),
	}
}

// addServer registers the per-server gauges for a new registry entry. IDs
// are dense registry indexes, so the metric name is stable across runs of
// the same plan.
func (m *fleetMetrics) addServer(id int) {
	if m == nil {
		return
	}
	for len(m.sessions) <= id {
		i := len(m.sessions)
		m.sessions = append(m.sessions, m.reg.Gauge(
			fmt.Sprintf("swiftest_fleet_server_%d_sessions", i),
			"In-flight sessions assigned to this fleet server."))
		m.loadMbps = append(m.loadMbps, m.reg.Gauge(
			fmt.Sprintf("swiftest_fleet_server_%d_load_mbps", i),
			"Claimed bandwidth load on this fleet server in Mbps."))
	}
}

// updateServer refreshes one server's load gauges.
func (m *fleetMetrics) updateServer(s *server) {
	if m == nil || s == nil || s.info.ID >= len(m.sessions) {
		return
	}
	m.sessions[s.info.ID].Set(float64(s.live))
	m.loadMbps[s.info.ID].Set(s.load)
}

// updateAllServers refreshes every server's load gauges — called from the
// registry's Advance so TTL expiry shows up without a dispatch event.
func (m *fleetMetrics) updateAllServers(servers []*server) {
	if m == nil {
		return
	}
	for _, s := range servers {
		m.updateServer(s)
	}
}

// setStates publishes the state-count gauges.
func (m *fleetMetrics) setStates(live, draining, dead int) {
	if m == nil {
		return
	}
	m.serversLive.Set(float64(live))
	m.serversDraining.Set(float64(draining))
	m.serversDead.Set(float64(dead))
}
