// Package faults implements deterministic, seeded fault plans for bandwidth
// tests: server blackouts at a chosen instant, handshake drops, burst-loss
// windows, delayed or duplicated pongs, and rate-cap squeezes. A plan is a
// declarative JSON document; an Injector answers point queries ("should this
// datagram be dropped at elapsed time t?") purely as a function of the plan,
// its seed, and the query coordinates, so the same plan produces the same
// fault sequence under the virtual-time emulator and over real loopback UDP
// — and the same event stream on every seed-fixed rerun.
//
// The package is virtual-time safe by construction: it never reads a clock.
// Callers stamp every query with their own elapsed time — virtual under
// core.SimProbe, wall time inside the transport server.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// Kind enumerates the fault types a plan can schedule.
type Kind string

// The fault vocabulary. Each value is also the JSON "kind" string.
const (
	// Blackout makes a server fall silent: inbound packets are ignored and
	// no probe datagram is paced while the fault is active — the mid-test
	// server-death scenario.
	Blackout Kind = "blackout"
	// HandshakeDrop discards Setup datagrams, so session setup
	// against the server fails while the fault is active (Prob scales it
	// from "every attempt" down to a per-attempt coin flip).
	HandshakeDrop Kind = "handshake_drop"
	// BurstLoss drops each probe datagram with probability Prob while the
	// window is active — the bursty loss episodes of degraded radio access.
	BurstLoss Kind = "burst_loss"
	// PongDelay holds every pong back by Delay while active, inflating the
	// server's apparent RTT during selection.
	PongDelay Kind = "pong_delay"
	// PongDup sends Dups extra copies of every pong while active —
	// duplicated control traffic that selection must tolerate.
	PongDup Kind = "pong_dup"
	// RateCap clamps the server's pacing to CapMbps while active — an
	// ISP-style squeeze mid-test.
	RateCap Kind = "rate_cap"
)

// AllServers as a Fault.Server targets every server in the pool.
const AllServers = -1

// forever is the open-ended fault horizon used when DurationMS is zero.
const forever = time.Duration(math.MaxInt64)

// Fault is one scheduled fault clause. Times are milliseconds of elapsed
// test time (virtual or wall, depending on the substrate).
type Fault struct {
	// Kind selects the fault type. Required.
	Kind Kind `json:"kind"`
	// Server is the index of the targeted server in the test's pool order;
	// AllServers (-1) targets every server.
	Server int `json:"server"`
	// AtMS is the activation time in elapsed milliseconds.
	AtMS float64 `json:"at_ms"`
	// DurationMS bounds the fault window; zero or omitted means "until the
	// end of the test".
	DurationMS float64 `json:"duration_ms,omitempty"`
	// Prob is the per-event probability for BurstLoss (required) and
	// HandshakeDrop (zero means every attempt).
	Prob float64 `json:"prob,omitempty"`
	// CapMbps is the pacing clamp for RateCap.
	CapMbps float64 `json:"cap_mbps,omitempty"`
	// DelayMS is the pong hold-back for PongDelay.
	DelayMS float64 `json:"delay_ms,omitempty"`
	// Dups is the number of extra pong copies for PongDup; zero selects 1.
	Dups int `json:"dups,omitempty"`
}

// At reports the fault's activation time.
func (f Fault) At() time.Duration {
	return time.Duration(f.AtMS * float64(time.Millisecond))
}

// Window reports the fault's active interval [from, to).
func (f Fault) Window() (from, to time.Duration) {
	from = f.At()
	if f.DurationMS <= 0 {
		return from, forever
	}
	return from, from + time.Duration(f.DurationMS*float64(time.Millisecond))
}

// activeOn reports whether the fault applies to server at elapsed time at.
func (f Fault) activeOn(server int, at time.Duration) bool {
	if f.Server != AllServers && f.Server != server {
		return false
	}
	from, to := f.Window()
	return at >= from && at < to
}

func (f Fault) validate(i int) error {
	switch f.Kind {
	case Blackout, HandshakeDrop, BurstLoss, PongDelay, PongDup, RateCap:
	default:
		return fmt.Errorf("faults: fault %d: unknown kind %q", i, f.Kind)
	}
	if f.Server < AllServers {
		return fmt.Errorf("faults: fault %d: server index %d (use %d for all servers)", i, f.Server, AllServers)
	}
	if f.AtMS < 0 || f.DurationMS < 0 {
		return fmt.Errorf("faults: fault %d: negative time", i)
	}
	if f.Prob < 0 || f.Prob > 1 {
		return fmt.Errorf("faults: fault %d: prob %g out of [0,1]", i, f.Prob)
	}
	switch f.Kind {
	case BurstLoss:
		if f.Prob <= 0 {
			return fmt.Errorf("faults: fault %d: burst_loss needs prob > 0", i)
		}
	case RateCap:
		if f.CapMbps <= 0 {
			return fmt.Errorf("faults: fault %d: rate_cap needs cap_mbps > 0", i)
		}
	case PongDelay:
		if f.DelayMS <= 0 {
			return fmt.Errorf("faults: fault %d: pong_delay needs delay_ms > 0", i)
		}
	}
	if f.Dups < 0 {
		return fmt.Errorf("faults: fault %d: negative dups", i)
	}
	return nil
}

// Plan is a full fault schedule for one test run.
type Plan struct {
	// Seed drives the probabilistic draws (burst loss, probabilistic
	// handshake drops). The same plan with the same seed makes identical
	// decisions on every rerun.
	Seed int64 `json:"seed,omitempty"`
	// Faults is the schedule.
	Faults []Fault `json:"faults"`
}

// Validate checks every clause of the plan.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, f := range p.Faults {
		if err := f.validate(i); err != nil {
			return err
		}
	}
	return nil
}

// Parse decodes and validates a JSON fault plan. Unknown fields are
// rejected so schema typos fail loudly instead of silently injecting
// nothing.
func Parse(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faults: parsing plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load reads and parses a JSON fault plan from path.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: reading plan: %w", err)
	}
	return Parse(data)
}

// Injector returns the plan's deterministic decision engine. A nil plan
// yields a nil injector, whose every query reports "no fault" — hooks can
// be installed unconditionally.
func (p *Plan) Injector() *Injector {
	if p == nil {
		return nil
	}
	return &Injector{plan: *p, seed: stats.SplitMix64(uint64(p.Seed) ^ 0x5bf0f5249ab71d6d)}
}

// Injector answers point-in-time fault queries for a plan. All methods are
// nil-receiver safe and stateless: decisions depend only on the plan, the
// seed, and the query coordinates, never on query order — so concurrent
// pacing goroutines and single-threaded virtual-time loops draw the same
// conclusions.
type Injector struct {
	plan Plan
	seed uint64
}

// Blackout reports whether server is blacked out at elapsed time at.
func (inj *Injector) Blackout(server int, at time.Duration) bool {
	if inj == nil {
		return false
	}
	for _, f := range inj.plan.Faults {
		if f.Kind == Blackout && f.activeOn(server, at) {
			return true
		}
	}
	return false
}

// DropHandshake reports whether a session-setup attempt against server at
// elapsed time at should be discarded. attempt distinguishes retries so
// probabilistic drops re-draw per attempt.
func (inj *Injector) DropHandshake(server int, at time.Duration, attempt int) bool {
	if inj == nil {
		return false
	}
	if inj.Blackout(server, at) {
		return true
	}
	for _, f := range inj.plan.Faults {
		if f.Kind != HandshakeDrop || !f.activeOn(server, at) {
			continue
		}
		if f.Prob <= 0 || f.Prob >= 1 {
			return true
		}
		if inj.draw(1, uint64(server)+1, uint64(attempt)+1) < f.Prob {
			return true
		}
	}
	return false
}

// LossProb reports the per-event loss probability active on server at
// elapsed time at — the strongest of the active burst-loss windows.
// Blackouts are not folded in; query Blackout separately.
func (inj *Injector) LossProb(server int, at time.Duration) float64 {
	if inj == nil {
		return 0
	}
	var p float64
	for _, f := range inj.plan.Faults {
		if f.Kind == BurstLoss && f.activeOn(server, at) && f.Prob > p {
			p = f.Prob
		}
	}
	return p
}

// DropData reports whether one probe datagram (identified by its wire
// sequence number) to server at elapsed time at should be discarded:
// always during a blackout, and with probability Prob inside a burst-loss
// window. The draw is a pure hash of (seed, server, seq), so reruns and
// concurrent queries agree.
func (inj *Injector) DropData(server int, at time.Duration, seq uint64) bool {
	if inj == nil {
		return false
	}
	if inj.Blackout(server, at) {
		return true
	}
	p := inj.LossProb(server, at)
	if p <= 0 {
		return false
	}
	return inj.draw(2, uint64(server)+1, seq+1) < p
}

// PongAction describes what to do with one pong response.
type PongAction struct {
	Drop   bool          // discard the pong entirely (blackout)
	Delay  time.Duration // hold the pong back this long
	Copies int           // total pongs to send (1 = normal, >1 = duplicated)
}

// Pong reports the treatment of a pong from server at elapsed time at.
func (inj *Injector) Pong(server int, at time.Duration) PongAction {
	act := PongAction{Copies: 1}
	if inj == nil {
		return act
	}
	if inj.Blackout(server, at) {
		act.Drop = true
		return act
	}
	for _, f := range inj.plan.Faults {
		if !f.activeOn(server, at) {
			continue
		}
		switch f.Kind {
		case PongDelay:
			if d := time.Duration(f.DelayMS * float64(time.Millisecond)); d > act.Delay {
				act.Delay = d
			}
		case PongDup:
			extra := f.Dups
			if extra <= 0 {
				extra = 1
			}
			act.Copies += extra
		}
	}
	return act
}

// CapMbps reports the tightest pacing clamp active on server at elapsed
// time at, and whether any clamp is active.
func (inj *Injector) CapMbps(server int, at time.Duration) (float64, bool) {
	if inj == nil {
		return 0, false
	}
	capMbps, ok := 0.0, false
	for _, f := range inj.plan.Faults {
		if f.Kind != RateCap || !f.activeOn(server, at) {
			continue
		}
		if !ok || f.CapMbps < capMbps {
			capMbps, ok = f.CapMbps, true
		}
	}
	return capMbps, ok
}

// Impair renders server's faults as a linksim impairment hook: blackouts
// silence the flow, burst-loss windows drop whole ticks, rate caps clamp
// the offered rate. The hook is called with link time and reads the plan
// at link time minus start. A nil injector returns a nil hook, so a link
// without a plan keeps linksim's unimpaired fast path.
func (inj *Injector) Impair(server int, start time.Duration) func(at time.Duration) linksim.Impairment {
	if inj == nil {
		return nil
	}
	return func(at time.Duration) linksim.Impairment {
		rel := at - start
		imp := linksim.Impairment{
			Down:     inj.Blackout(server, rel),
			LossProb: inj.LossProb(server, rel),
		}
		if capMbps, ok := inj.CapMbps(server, rel); ok {
			imp.CapMbps = capMbps
		}
		return imp
	}
}

// draw produces a uniform [0,1) variate as a pure hash of the injector
// seed and the query coordinates.
func (inj *Injector) draw(domain uint64, parts ...uint64) float64 {
	x := inj.seed ^ stats.SplitMix64(domain)
	for _, p := range parts {
		x = stats.SplitMix64(x ^ p*stats.SplitMix64Gamma)
	}
	return stats.Uniform01(x)
}
