// Package fleet is the dispatch control plane that turns a §5.2 deployment
// plan into a live server fleet: a Registry of test servers with
// heartbeat-based liveness, and a Dispatcher that assigns each incoming
// client a ranked server list under per-server admission control.
//
// The paper's cost story (§5.2, Figure 26) presumes exactly this layer: a
// few thin budget servers only absorb the whole crowdsourced test load if a
// runtime steers every client to a server with headroom and sheds the excess
// gracefully. The planner (package deploy) decides what to buy and where to
// put it; this package decides, per test, who serves it.
//
// Liveness reuses the K-consecutive-silent-windows rule of package faults
// (faults.LostTracker): a server whose heartbeats go silent for K windows is
// dead — the same detector the data plane applies to probe traffic, so an
// injected blackout marks a server dead identically under the virtual-time
// emulator and over real UDP.
//
// Like every experiment-grade package in this repository the control plane
// runs in caller-stamped time: every method takes the elapsed time `at`
// (virtual under loadgen, wall-derived in cmd/swiftest) and the package
// never reads a clock, so swiftvet's walltime analyzer holds here with zero
// allows — and package vtcore pins it that way.
package fleet

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/faults"
)

// DefaultHeartbeatWindow is the liveness sampling window: each window a
// registered server must heartbeat at least once or it accrues one silent
// window toward the K-silent-windows death rule. 500 ms keeps detection
// within 2 s at the default K=4 while tolerating scheduler hiccups.
const DefaultHeartbeatWindow = 500 * time.Millisecond

// ServerState is a registry entry's lifecycle state.
type ServerState int

const (
	// StatePlanned is a slot created from a deploy.Plan that no live server
	// has claimed yet; planned slots receive no assignments.
	StatePlanned ServerState = iota
	// StateLive servers heartbeat and receive assignments.
	StateLive
	// StateDraining servers finish their in-flight tests but receive no new
	// assignments; when the last session ends they become StateGone.
	StateDraining
	// StateDead servers missed K consecutive heartbeat windows; a fresh
	// heartbeat revives them.
	StateDead
	// StateGone servers drained to zero sessions and deregistered.
	StateGone
)

// String names the state for logs and traces.
func (s ServerState) String() string {
	switch s {
	case StatePlanned:
		return "planned"
	case StateLive:
		return "live"
	case StateDraining:
		return "draining"
	case StateDead:
		return "dead"
	case StateGone:
		return "gone"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ServerInfo identifies one fleet server.
type ServerInfo struct {
	ID         int     // registry index, stable for the registry's lifetime
	Addr       string  // "host:port" for live servers; "<domain>/slotN" for planned slots
	Domain     string  // IXP domain from the placement, "" if unplaced
	UplinkMbps float64 // egress capacity, the base of the session cap
}

// ServerStatus is a point-in-time view of one registry entry.
type ServerStatus struct {
	ServerInfo
	State      ServerState
	Sessions   int     // in-flight tests assigned here
	SessionCap int     // admission cap derived from the plan's uplink
	LoadMbps   float64 // sum of the assigned tests' claimed bandwidth
	Tokens     float64 // admission tokens currently available
	Silent     int     // consecutive silent heartbeat windows
}

// lease is one admitted test occupying a session slot on a server.
type lease struct {
	seq      uint64
	mbps     float64
	expires  time.Duration // at-time after which Advance reclaims the slot
	released bool          // freed, awaiting compaction
}

// server is one registry entry. All fields are guarded by the Registry
// mutex; the struct itself is never shared outside the registry.
type server struct {
	info    ServerInfo
	state   ServerState
	cap     int     // concurrent-session cap (0 = uncapped)
	tokens  float64 // admission token bucket level
	rate    float64 // token refill per second
	burst   float64 // token bucket ceiling
	beats   int     // heartbeats since the last liveness window
	silent  int     // consecutive silent windows (mirrors tracker state for reporting)
	tracker *faults.LostTracker
	// leases holds the server's leases in grant order, which is ascending
	// seq because the registry's leaseSeq only grows. A release marks its
	// entry; marked entries are compacted away lazily, so live, not
	// len(leases), is the session count.
	leases []lease
	live   int     // leases not yet released or expired
	load   float64 // Mbps claimed by live leases
}

func (s *server) status() ServerStatus {
	return ServerStatus{
		ServerInfo: s.info,
		State:      s.state,
		Sessions:   s.live,
		SessionCap: s.cap,
		LoadMbps:   s.load,
		Tokens:     s.tokens,
		Silent:     s.silent,
	}
}

// assignable reports whether the server may take NEW tests (failover
// reassignment uses a looser check that skips the token bucket).
func (s *server) assignable() bool {
	if s.state != StateLive {
		return false
	}
	if s.cap > 0 && s.live >= s.cap {
		return false
	}
	return s.tokens >= 1
}

// acceptsFailover reports whether the server can absorb a session failing
// over from a dead server: failover is not a new test start, so it bypasses
// the token bucket but still respects the session cap.
func (s *server) acceptsFailover() bool {
	if s.state != StateLive {
		return false
	}
	return s.cap == 0 || s.live < s.cap
}

// claimLocked records a lease on the server.
func (s *server) claimLocked(seq uint64, mbps float64, expires time.Duration) {
	s.leases = append(s.leases, lease{seq: seq, mbps: mbps, expires: expires})
	s.live++
	s.load += mbps
}

// releaseLocked frees the lease with the given seq, reporting whether it was
// live. The lease is found by binary search and marked, not removed; the
// slice is compacted, in order, once marked entries outnumber live ones, so
// a release costs amortised O(log n) whatever order leases end in.
func (s *server) releaseLocked(seq uint64) bool {
	i, ok := slices.BinarySearchFunc(s.leases, seq, func(l lease, seq uint64) int { return cmp.Compare(l.seq, seq) })
	if !ok || s.leases[i].released {
		return false
	}
	s.leases[i].released = true
	s.live--
	s.load -= s.leases[i].mbps
	if s.load < 0 {
		s.load = 0
	}
	if len(s.leases)-s.live > s.live {
		s.leases = slices.DeleteFunc(s.leases, func(l lease) bool { return l.released })
	}
	return true
}

// expireLocked reclaims live leases past their TTL, returning how many were
// reclaimed. It walks the leases in grant order, so load is decremented in
// the same order on every run, and compacts the slice as it goes, dropping
// released and expired entries alike.
func (s *server) expireLocked(at time.Duration) int {
	kept := s.leases[:0]
	reclaimed := 0
	for _, l := range s.leases {
		if l.released {
			continue
		}
		if l.expires > 0 && at >= l.expires {
			s.load -= l.mbps
			reclaimed++
			continue
		}
		kept = append(kept, l)
	}
	s.leases = kept
	s.live = len(kept)
	if s.load < 0 {
		s.load = 0
	}
	return reclaimed
}
