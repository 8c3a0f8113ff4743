package core

import (
	"fmt"
	"math"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/errdefs"
	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/obs"
)

// uplinkHeadroom over-provisions the open servers slightly beyond the
// probing rate (§5.1: their total uplink "slightly exceeds" it).
const uplinkHeadroom = 1.05

// HandshakeAttempts bounds the tries of each handshake step with one server,
// live or emulated. A server that exhausts it is skipped for the rest of the
// test.
const HandshakeAttempts = 5

// ServerIO is the I/O a probe lends its ServerSet for one call. Open runs
// the handshake with server i (at most HandshakeAttempts tries; an error
// leaves the server unused for the rest of the test), Pace asks open server
// i to send at mbps, Release closes a server the set declared lost, and
// Elapsed stamps the set's trace events. It is lent, not stored: a set
// holding callbacks into its own probe would move that probe to the heap.
type ServerIO struct {
	Open    func(i int) error
	Pace    func(i int, mbps float64)
	Release func(i int)
	Elapsed func() time.Duration
}

type serverState uint8

const (
	serverIdle   serverState = iota // not opened yet
	serverOpen                      // live: paced at its share
	serverFailed                    // handshake exhausted; never retried
	serverLost                      // declared dead mid-test; never reopened
)

// setServer is one server's place in a ServerSet.
type setServer struct {
	addr    string  // trace label
	uplink  float64 // Mbps cap; ≤ 0 is uncapped
	state   serverState
	share   float64 // Mbps currently asked of the server
	tracker faults.LostTracker
}

// ServerSet is §5.1's server-set rule, run by the emulated pool (SimProbe)
// and the live client (transport.UDPProbe) alike. Servers open
// nearest-first until their uplinks cover the probing rate with headroom;
// the rate is split nearest-first, each open server taking up to its uplink
// and one with nothing left for it idling at zero; a server that owes
// traffic and delivers nothing for K consecutive sample windows is lost, and
// the set re-splits over the survivors, opening replacements. A server that
// failed its handshake or was lost never reopens.
type ServerSet struct {
	one     [1]setServer // the servers when there is one, sparing an allocation
	more    []setServer  // the servers when there are more (or none)
	target  float64
	used    int
	lost    int
	lastErr error // the most recent Open failure
	trace   *obs.Trace
}

// Reset makes the set n unopened servers, nearest-first, uncapped and
// unlabelled until Describe. K is lostAfter (≤ 0 selects
// faults.DefaultLostWindows); trace, when non-nil, receives server_add,
// server_lost and failed-handshake events.
func (s *ServerSet) Reset(n, lostAfter int, trace *obs.Trace) {
	*s = ServerSet{trace: trace}
	if n != 1 {
		s.more = make([]setServer, n)
	}
	for i := range s.servers() {
		s.servers()[i].tracker = *faults.NewLostTracker(lostAfter)
	}
}

// Describe labels server i in trace events and caps its share at
// uplinkMbps; an uplink ≤ 0 is uncapped and covers any rate.
func (s *ServerSet) Describe(i int, addr string, uplinkMbps float64) {
	srv := &s.servers()[i]
	srv.addr, srv.uplink = addr, uplinkMbps
}

func (s *ServerSet) servers() []setServer {
	if s.more != nil {
		return s.more
	}
	return s.one[:]
}

// SetTarget adopts a new probing rate: it opens servers through io until
// their uplinks cover it and paces every open server at its share. A rate
// that is negative or not finite is an error, and so is a positive rate no
// server is live for.
func (s *ServerSet) SetTarget(mbps float64, io ServerIO) error {
	if !(mbps >= 0) || math.IsInf(mbps, 1) {
		return fmt.Errorf("core: probing rate %g is not a finite non-negative number", mbps)
	}
	s.target = mbps
	s.split(io)
	if !s.exhausted() {
		return nil
	}
	if s.lastErr != nil {
		return fmt.Errorf("core: %w for %.1f Mbps: %w", errdefs.ErrNoReachableServer, mbps, s.lastErr)
	}
	return fmt.Errorf("core: %w for %.1f Mbps", errdefs.ErrNoReachableServer, mbps)
}

// split opens unopened servers nearest-first while the live uplinks fall
// short of the target with headroom, then hands each live server
// min(remaining, uplink) of the target.
func (s *ServerSet) split(io ServerIO) {
	servers := s.servers()
	var covered float64
	for i := range servers {
		srv := &servers[i]
		// Unopened servers trail every opened one, so covered sums the
		// whole live set by the time the first of them is reached.
		if srv.state == serverIdle && covered < s.target*uplinkHeadroom {
			if err := io.Open(i); err != nil {
				srv.state, s.lastErr = serverFailed, err
				s.trace.Record(io.Elapsed(), obs.EventError, 0, 0, "handshake failed: "+srv.addr)
				continue
			}
			srv.state = serverOpen
			s.used++
			s.trace.Record(io.Elapsed(), obs.EventServerAdd, 0, srv.uplink, srv.addr)
		}
		if srv.state == serverOpen {
			covered += srv.uplink
			if srv.uplink <= 0 {
				covered = math.Inf(1)
			}
		}
	}
	remaining := s.target
	for i := range servers {
		srv := &servers[i]
		if srv.state != serverOpen {
			continue
		}
		share := remaining
		if srv.uplink > 0 && share > srv.uplink {
			share = srv.uplink
		}
		remaining -= share
		srv.share = share
		io.Pace(i, share)
	}
}

// Window folds one sample window into the loss rule: delivered(i) is the
// whole bytes open server i delivered in it. A server that owes traffic and
// has delivered nothing for K consecutive windows is lost — counted, traced
// and closed through io.Release — and the set then re-splits over the
// survivors, opening replacements. Window reports false once the set is
// exhausted: no server is live for a positive target.
func (s *ServerSet) Window(io ServerIO, delivered func(i int) int64) bool {
	servers := s.servers()
	failedOver := false
	for i := range servers {
		srv := &servers[i]
		if srv.state != serverOpen || !srv.tracker.Observe(delivered(i), srv.share > 0) {
			continue
		}
		srv.state = serverLost
		s.lost++
		s.trace.Record(io.Elapsed(), obs.EventServerLost, srv.share, 0, srv.addr)
		srv.share = 0
		io.Release(i)
		failedOver = true
	}
	if failedOver {
		s.split(io)
	}
	return !s.exhausted()
}

// exhausted reports whether a positive target has no live server.
func (s *ServerSet) exhausted() bool { return s.target > 0 && s.used == s.lost }

// Live reports whether server i is open: opened and not lost.
func (s *ServerSet) Live(i int) bool { return s.servers()[i].state == serverOpen }

// ServersUsed reports the servers opened so far, lost ones included.
func (s *ServerSet) ServersUsed() int { return s.used }

// ServersLost reports the servers declared lost so far.
func (s *ServerSet) ServersLost() int { return s.lost }
