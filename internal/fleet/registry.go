package fleet

import (
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/obs"
)

// Registry is the fleet's server table: planned slots from a deployment
// plan, live servers that registered and heartbeat, and the liveness state
// machine that marks silent servers dead. All time is caller-stamped: the
// host calls Advance with its elapsed time (virtual or wall-derived) and the
// registry folds heartbeat windows up to that point.
type Registry struct {
	window  time.Duration
	metrics *fleetMetrics
	trace   *obs.Trace
	// admission sizes the token bucket and session cap for a server that
	// registers with an uplink the plan did not anticipate; the Dispatcher
	// installs its per-test sizing here. Nil leaves admission uncapped.
	admission func(uplinkMbps float64) (cap int, rate, burst float64)

	mu         sync.Mutex
	servers    []*server     // guarded by mu
	nextWindow time.Duration // guarded by mu
	leaseSeq   uint64        // guarded by mu
}

// newRegistry builds an empty registry; the Dispatcher constructor populates
// it with planned slots.
func newRegistry(window time.Duration, metrics *fleetMetrics, trace *obs.Trace) *Registry {
	if window <= 0 {
		window = DefaultHeartbeatWindow
	}
	return &Registry{window: window, metrics: metrics, trace: trace, nextWindow: window}
}

// HeartbeatWindow reports the liveness sampling window.
func (r *Registry) HeartbeatWindow() time.Duration { return r.window }

// addServerLocked appends a registry entry and returns it.
func (r *Registry) addServerLocked(info ServerInfo, state ServerState, cap int, rate, burst float64) *server {
	info.ID = len(r.servers)
	s := &server{
		info:    info,
		state:   state,
		cap:     cap,
		rate:    rate,
		burst:   burst,
		tokens:  burst,
		tracker: faults.NewLostTracker(faults.DefaultLostWindows),
	}
	r.servers = append(r.servers, s)
	r.metrics.addServer(info.ID)
	return s
}

// Register claims a fleet slot for a live server. A planned slot in the same
// IXP domain is claimed first (the plan placed a server there), then any
// planned slot, then a fresh entry is appended for unplanned capacity. The
// server comes up live with a heartbeat on the books.
func (r *Registry) Register(addr, domain string, uplinkMbps float64, at time.Duration) (int, error) {
	if addr == "" {
		return 0, fmt.Errorf("fleet: register: empty address")
	}
	if !(uplinkMbps > 0) || math.IsInf(uplinkMbps, 1) {
		return 0, fmt.Errorf("fleet: register %s: uplink %g Mbps must be positive and finite", addr, uplinkMbps)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var slot *server
	for _, s := range r.servers {
		if s.state == StatePlanned && s.info.Domain == domain {
			slot = s
			break
		}
	}
	if slot == nil {
		for _, s := range r.servers {
			if s.state == StatePlanned {
				slot = s
				break
			}
		}
	}
	if slot == nil {
		cap, rate, burst := r.admissionForUplinkLocked(uplinkMbps)
		slot = r.addServerLocked(ServerInfo{Addr: addr, Domain: domain, UplinkMbps: uplinkMbps}, StateLive, cap, rate, burst)
	} else {
		slot.info.Addr = addr
		if domain != "" {
			slot.info.Domain = domain
		}
		if uplinkMbps != slot.info.UplinkMbps {
			slot.info.UplinkMbps = uplinkMbps
			slot.cap, slot.rate, slot.burst = r.admissionForUplinkLocked(uplinkMbps)
			slot.tokens = slot.burst
		}
		slot.state = StateLive
	}
	slot.beats++
	slot.silent = 0
	r.updateStateGaugesLocked()
	return slot.info.ID, nil
}

func (r *Registry) admissionForUplinkLocked(uplinkMbps float64) (int, float64, float64) {
	if r.admission != nil {
		return r.admission(uplinkMbps)
	}
	return 0, 0, 0
}

// Heartbeat records one liveness beat from server id at elapsed time at. A
// beat from a dead server revives it immediately — the symmetric half of the
// K-silent-windows rule.
func (r *Registry) Heartbeat(id int, at time.Duration) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, err := r.serverLocked(id)
	if err != nil {
		return err
	}
	if s.state == StateGone || s.state == StatePlanned {
		return fmt.Errorf("fleet: heartbeat from %s server %d", s.state, id)
	}
	s.beats++
	if s.state == StateDead {
		s.state = StateLive
		s.silent = 0
		s.tracker = faults.NewLostTracker(faults.DefaultLostWindows)
		r.updateStateGaugesLocked()
	}
	return nil
}

// Drain marks a server draining: no new assignments, in-flight tests finish,
// and when the last lease is released the server deregisters.
func (r *Registry) Drain(id int, at time.Duration) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, err := r.serverLocked(id)
	if err != nil {
		return err
	}
	if s.state != StateLive && s.state != StateDead {
		return fmt.Errorf("fleet: drain: server %d is %s", id, s.state)
	}
	s.state = StateDraining
	r.trace.Record(at, obs.EventDrain, float64(s.live), 0, s.info.Addr)
	r.metrics.drainsTotal.Inc()
	if s.live == 0 {
		r.finishDrainLocked(s)
	}
	r.updateStateGaugesLocked()
	return nil
}

// finishDrainLocked completes a drain: the server leaves the fleet.
func (r *Registry) finishDrainLocked(s *server) {
	s.state = StateGone
	s.tokens = 0
	r.metrics.updateServer(s)
}

// Advance folds elapsed heartbeat windows up to at: liveness observation via
// the K-silent-windows tracker, token-bucket refill, and lease-TTL expiry.
// Call it from the host's clock loop (wall ticker in cmd/swiftest, the
// virtual-time step loop in loadgen) — it is idempotent for a given at.
func (r *Registry) Advance(at time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.nextWindow <= at {
		r.advanceWindowLocked(r.nextWindow)
		r.nextWindow += r.window
	}
	r.metrics.updateAllServers(r.servers)
}

func (r *Registry) advanceWindowLocked(windowEnd time.Duration) {
	winSec := r.window.Seconds()
	changed := false
	for _, s := range r.servers {
		switch s.state {
		case StatePlanned, StateGone:
			continue
		}
		// Token refill happens even for dead servers so a revived server is
		// not starved for admission.
		if s.rate > 0 {
			s.tokens += s.rate * winSec
			if s.tokens > s.burst {
				s.tokens = s.burst
			}
		}
		if s.expireLocked(windowEnd) > 0 && s.state == StateDraining && s.live == 0 {
			r.finishDrainLocked(s)
			changed = true
		}
		// The liveness fold: one Observe per window, beats as "bytes".
		assigned := s.state == StateLive || s.state == StateDraining
		beats := s.beats
		s.beats = 0
		if beats > 0 {
			s.silent = 0
		} else if assigned {
			s.silent++
		}
		if s.tracker.Observe(int64(beats), assigned) {
			s.state = StateDead
			r.trace.Record(windowEnd, obs.EventServerDead, float64(s.silent), 0, s.info.Addr)
			r.metrics.deadTotal.Inc()
			changed = true
		}
	}
	if changed {
		r.updateStateGaugesLocked()
	}
}

// Release frees the lease granted by a Dispatch or Reassign call. Releasing
// an already-expired or unknown lease is a no-op.
func (r *Registry) Release(l LeaseID, at time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, err := r.serverLocked(l.Server)
	if err != nil {
		return
	}
	if !s.releaseLocked(l.Seq) {
		return
	}
	if s.state == StateDraining && s.live == 0 {
		r.finishDrainLocked(s)
		r.updateStateGaugesLocked()
	}
	r.metrics.updateServer(s)
}

// Servers reports a snapshot of every registry entry, in ID order.
func (r *Registry) Servers() []ServerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ServerStatus, 0, len(r.servers))
	for _, s := range r.servers {
		out = append(out, s.status())
	}
	return out
}

func (r *Registry) serverLocked(id int) (*server, error) {
	if id < 0 || id >= len(r.servers) {
		return nil, fmt.Errorf("fleet: unknown server %d", id)
	}
	return r.servers[id], nil
}

func (r *Registry) updateStateGaugesLocked() {
	var live, draining, dead int
	for _, s := range r.servers {
		switch s.state {
		case StateLive:
			live++
		case StateDraining:
			draining++
		case StateDead:
			dead++
		}
	}
	r.metrics.setStates(live, draining, dead)
}
