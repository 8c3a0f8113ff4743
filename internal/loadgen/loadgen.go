// Package loadgen drives thousands of emulated clients through a fleet
// dispatcher over a pool of emulated server uplinks, entirely in virtual
// time — the executable form of §5.2's Figure 26 claim that a handful of
// planned budget servers absorbs the crowdsourced test load that BTS-APP
// spreads over 352 machines.
//
// The generator compresses one diurnal day (deploy.GenerateTrace over
// deploy.DefaultDiurnal, the same arrival process that motivated the plan)
// into a short virtual horizon, spawns clients to track the target
// concurrency, dispatches each through fleet.Dispatcher, and runs every
// admitted test as a 2 s linksim flow on its server's uplink. Servers
// heartbeat every step unless a fault plan blacks them out, so an injected
// blackout kills a server by the same K-silent-windows rule the data plane
// uses — and the affected clients fail over along their ranked assignment,
// exactly the path a real client takes.
//
// Everything is deterministic: a fixed seed produces a byte-identical
// assignment stream regardless of Workers, because workers only parallelise
// the per-server link simulation (independent seeded state, merged in
// server order) while arrivals, dispatch, completions and failovers run
// single-threaded in a canonical order.
package loadgen

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/deploy"
	"github.com/mobilebandwidth/swiftest/internal/errdefs"
	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/fleet"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/par"
	"github.com/mobilebandwidth/swiftest/internal/ranprofile"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// Step is the generator's scheduling quantum: arrivals, heartbeats,
// completions and failover checks happen once per step, matching the
// engine's 50 ms sampling interval.
const Step = linksim.SampleInterval

// Defaults for Config zero values.
const (
	DefaultDuration    = 30 * time.Second
	DefaultPerTestMbps = 1.0
)

// testDuration is each emulated test's service time.
const testDuration = 2 * time.Second

// Config parameterises one load-generation run.
type Config struct {
	// Plan is the deployment plan under test. Required.
	Plan deploy.Plan
	// Placements optionally places the plan's servers in IXP domains,
	// enabling latency-aware ranking.
	Placements []deploy.Placement
	// Duration is the virtual horizon; one full diurnal day of arrivals is
	// compressed into it, so every run sweeps trough and peak hour. Zero
	// selects DefaultDuration.
	Duration time.Duration
	// PeakConcurrent is the target number of concurrent tests at the peak
	// hour of the diurnal curve. Required.
	PeakConcurrent int
	// PerTestMbps is the rate each client offers its server; zero selects
	// DefaultPerTestMbps. It is also the dispatcher's admission sizing, so
	// the plan's session capacity is Plan.ConcurrentCapacity(PerTestMbps).
	PerTestMbps float64
	// Workers bounds the goroutines advancing per-server links; ≤ 0 selects
	// GOMAXPROCS. The assignment stream is independent of this value.
	Workers int
	// Seed drives every random process (arrivals, link noise, tie-breaks).
	Seed int64
	// BurstProb is the flash-crowd probability per trace step, forwarded to
	// deploy.GenerateTrace: zero selects 0.02, negative disables. A burst
	// step multiplies the arrival rate by 3–12×.
	BurstProb float64
	// Faults, when non-nil, injects server faults: a blackout silences both
	// the server's heartbeats and its flows' delivery. Server indexes in
	// the plan (registry IDs) are the fault plan's server indexes.
	Faults *faults.Injector
	// Metrics and Trace, when non-nil, receive the fleet's observability
	// stream.
	Metrics *obs.Registry
	Trace   *obs.Trace
	// Profile, when non-nil, drives every server uplink through the RAN
	// scenario's state machine (independently seeded per server), with the
	// profile's relative capacity shape scaled so each server's planned
	// uplink is its best-state capacity. State dwell and handover
	// instruments land on Metrics.
	Profile *ranprofile.Profile
}

// ServerReport is one server's share of a run.
type ServerReport struct {
	fleet.ServerInfo
	DeliveredMB  float64 // bytes delivered to clients, in MB
	Utilization  float64 // mean delivered rate over the run ÷ uplink
	PeakSessions int
}

// Report summarises a run.
type Report struct {
	Duration       time.Duration
	TestsStarted   int // dispatches admitted
	TestsCompleted int // ran to their full duration
	TestsRejected  int // shed with errdefs.ErrFleetSaturated
	TestsAbandoned int // lost their server and found no failover target
	Failovers      int // mid-test reassignment to a ranked alternate
	PeakConcurrent int
	// RejectionRate is rejected ÷ (admitted + rejected) — the load-shedding
	// fraction.
	RejectionRate float64
	// MeanAchievedMbps averages completed tests' delivered rates.
	MeanAchievedMbps float64
	Servers          []ServerReport
	// AssignmentDigest is a SHA-256 over the ordered assignment stream
	// (every dispatch, rejection, failover and completion): byte-identical
	// across runs with the same seed, whatever Workers is.
	AssignmentDigest string
}

// client is one emulated test in flight.
type client struct {
	key     uint64
	assign  fleet.Assignment
	flow    *linksim.Flow
	server  int
	end     time.Duration
	last    float64 // DeliveredBytes at the previous sample
	tracker *faults.LostTracker
}

// Run executes the load generation to completion (or ctx cancellation,
// which returns the partial report and the context error).
func Run(ctx context.Context, cfg Config) (Report, error) {
	if cfg.PeakConcurrent <= 0 {
		return Report{}, fmt.Errorf("loadgen: PeakConcurrent %d must be positive", cfg.PeakConcurrent)
	}
	if cfg.Duration <= 0 {
		cfg.Duration = DefaultDuration
	}
	if cfg.PerTestMbps <= 0 {
		cfg.PerTestMbps = DefaultPerTestMbps
	}

	d, err := fleet.NewDispatcher(cfg.Plan, cfg.Placements, fleet.Config{
		PerTestMbps:     cfg.PerTestMbps,
		AvgTestDuration: testDuration,
		Seed:            cfg.Seed,
		ActivatePlanned: true,
		Metrics:         cfg.Metrics,
		Trace:           cfg.Trace,
	})
	if err != nil {
		return Report{}, err
	}
	reg := d.Registry()
	targets, err := arrivalTargets(cfg)
	if err != nil {
		return Report{}, err
	}

	// One emulated uplink per planned server, independently seeded.
	infos := reg.Servers()
	links := make([]*linksim.Link, len(infos))
	peakSessions := make([]int, len(infos))
	delivered := make([]float64, len(infos))
	for i, s := range infos {
		linkCfg := linksim.Config{
			CapacityMbps: s.UplinkMbps,
			RTT:          20 * time.Millisecond,
			Fluctuation:  0.05,
		}
		linkSeed := int64(mix(cfg.Seed, uint64(i)))
		if cfg.Profile != nil {
			// Scale the profile's relative shape to this server's planned
			// uplink: its best state delivers the full uplink, fades and
			// handovers cut it proportionally.
			nominal := cfg.Profile.NominalCapacityMbps()
			uplink := s.UplinkMbps
			machine := ranprofile.NewMachine(cfg.Profile, linkSeed, ranprofile.MachineOptions{
				Metrics: ranprofile.NewLinkMetrics(cfg.Metrics),
			})
			at := machine.At
			linkCfg = linksim.Config{StateHook: func(t time.Duration) linksim.LinkState {
				st := at(t)
				st.CapacityMbps = uplink * st.CapacityMbps / nominal
				return st
			}}
		}
		links[i], err = linksim.New(linkCfg, linkSeed)
		if err != nil {
			return Report{}, fmt.Errorf("loadgen: server %d link: %w", i, err)
		}
	}

	rep := Report{Duration: cfg.Duration, Servers: make([]ServerReport, len(infos))}
	digest := sha256.New()
	var (
		active   []*client
		nextKey  uint64
		achieved float64
		line     []byte // one digest line, reused
	)
	ticksPerStep := int(Step / linksim.Tick)
	steps := int(cfg.Duration / Step)
	for step := 0; step < steps; step++ {
		if err := ctx.Err(); err != nil {
			finishReport(&rep, digest, infos, links, delivered, peakSessions, achieved, time.Duration(step)*Step)
			return rep, err
		}
		at := time.Duration(step) * Step

		// Heartbeats: every server beats unless its fault plan blacks it
		// out — blackout silences the control plane and the data plane
		// identically. Heartbeat refuses planned and gone servers without
		// touching them, so no state check is needed here.
		for i := range infos {
			if cfg.Faults != nil && cfg.Faults.Blackout(i, at) {
				continue
			}
			_ = reg.Heartbeat(i, at)
		}
		reg.Advance(at)

		// Arrivals: spawn clients up to the trace's target concurrency.
		target := targets[step*len(targets)/steps]
		for len(active) < target {
			key := nextKey
			nextKey++
			a, err := d.Dispatch(fleet.ClientInfo{Key: key, Domain: clientDomain(cfg, key)}, at)
			if err != nil {
				if errors.Is(err, errdefs.ErrFleetSaturated) {
					rep.TestsRejected++
					line = appendKey(append(line[:0], "reject "...), key)
					digest.Write(line)
					break // the bucket is dry; retry next step
				}
				finishReport(&rep, digest, infos, links, delivered, peakSessions, achieved, at)
				return rep, err
			}
			rep.TestsStarted++
			line = appendAssign(append(line[:0], "assign "...), key, a)
			digest.Write(line)
			c := &client{
				key:     key,
				assign:  a,
				server:  a.Lease.Server,
				end:     at + testDuration,
				tracker: faults.NewLostTracker(0),
			}
			c.openFlow(links, cfg)
			active = append(active, c)
		}
		if len(active) > rep.PeakConcurrent {
			rep.PeakConcurrent = len(active)
		}
		for i, s := range reg.Servers() {
			if s.Sessions > peakSessions[i] {
				peakSessions[i] = s.Sessions
			}
		}

		// Parallel phase: advance every server link one step. Links are
		// independent (own rng, own flows), so goroutine scheduling cannot
		// change any outcome.
		par.For(len(links), cfg.Workers, func(i int) error {
			for range ticksPerStep {
				links[i].Advance()
			}
			return nil
		})
		after := at + Step

		// Sequential phase: sample every client in spawn order, detect
		// dead servers, fail over, complete finished tests.
		kept := active[:0]
		for _, c := range active {
			bytes := c.flow.DeliveredBytes()
			delta := bytes - c.last
			c.last = bytes
			delivered[c.server] += delta
			if c.tracker.Observe(int64(delta), true) {
				// K silent sample windows: the server is gone from this
				// client's perspective — fail over along the ranked list.
				moved, err := d.Reassign(c.assign, after)
				if err != nil {
					rep.TestsAbandoned++
					line = appendKey(append(line[:0], "abandon "...), c.key)
					digest.Write(line)
					c.flow.Close()
					continue
				}
				rep.Failovers++
				line = appendAssign(append(line[:0], "failover "...), c.key, moved)
				digest.Write(line)
				c.flow.Close()
				c.assign = moved
				c.server = moved.Lease.Server
				c.last = 0
				c.tracker = faults.NewLostTracker(0)
				c.openFlow(links, cfg)
				kept = append(kept, c)
				continue
			}
			if after >= c.end {
				rep.TestsCompleted++
				achieved += bytes * 8 / testDuration.Seconds() / 1e6
				line = appendKey(append(line[:0], "complete "...), c.key)
				digest.Write(line)
				c.flow.Close()
				reg.Release(c.assign.Lease, after)
				continue
			}
			kept = append(kept, c)
		}
		active = kept
	}
	for _, c := range active {
		c.flow.Close()
		reg.Release(c.assign.Lease, cfg.Duration)
	}
	finishReport(&rep, digest, infos, links, delivered, peakSessions, achieved, cfg.Duration)
	return rep, nil
}

// openFlow attaches the client to its current server's link, wiring the
// fault injector's impairments for that server.
func (c *client) openFlow(links []*linksim.Link, cfg Config) {
	c.flow = links[c.server].NewFlow()
	c.flow.SetOffered(cfg.PerTestMbps)
	c.flow.SetImpairment(cfg.Faults.Impair(c.server, 0))
}

// arrivalTargets compresses one diurnal day into a per-trace-point target
// concurrency, scaled so the peak hour hits cfg.PeakConcurrent. The trace
// counts in units of ceil(peak/500) clients, so a step's Poisson mean stays
// at most 500 outside bursts.
func arrivalTargets(cfg Config) ([]int, error) {
	var wsum, wmax float64
	for _, w := range deploy.DefaultDiurnal() {
		wsum += w
		wmax = max(wmax, w)
	}
	unit := math.Ceil(float64(cfg.PeakConcurrent) / 500)
	// Peak-hour concurrency λ·unit = PeakConcurrent ⇒ solve for TestsPerDay.
	perDay := float64(cfg.PeakConcurrent) / unit * 3600 * wsum / (wmax * testDuration.Seconds())
	trace, err := deploy.GenerateTrace(deploy.TraceOptions{
		Days:          1,
		TestsPerDay:   perDay,
		TestDuration:  testDuration,
		DrawBandwidth: func(*rand.Rand) float64 { return unit },
		BurstProb:     cfg.BurstProb,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	targets := make([]int, len(trace))
	for i, p := range trace {
		targets[i] = int(p.RequiredMbps)
	}
	return targets, nil
}

// clientDomain spreads clients across the IXP domains deterministically.
func clientDomain(cfg Config, key uint64) string {
	if len(cfg.Placements) == 0 {
		return ""
	}
	return deploy.IXPDomains[mix(cfg.Seed, key)%uint64(len(deploy.IXPDomains))]
}

// appendKey appends the rest of a reject, abandon or complete digest line to
// buf: "<key>\n".
func appendKey(buf []byte, key uint64) []byte {
	return append(strconv.AppendUint(buf, key, 10), '\n')
}

// appendAssign appends the rest of an assign or failover digest line to
// buf: "<key> -> " and the ranked server IDs, each followed by a comma.
func appendAssign(buf []byte, key uint64, a fleet.Assignment) []byte {
	buf = strconv.AppendUint(buf, key, 10)
	buf = append(buf, " -> "...)
	for _, s := range a.Servers {
		buf = strconv.AppendInt(buf, int64(s.ID), 10)
		buf = append(buf, ',')
	}
	return append(buf, '\n')
}

func finishReport(rep *Report, digest interface{ Sum([]byte) []byte }, infos []fleet.ServerStatus, links []*linksim.Link, delivered []float64, peakSessions []int, achieved float64, ran time.Duration) {
	rep.Duration = ran
	if n := rep.TestsStarted + rep.TestsRejected; n > 0 {
		rep.RejectionRate = float64(rep.TestsRejected) / float64(n)
	}
	if rep.TestsCompleted > 0 {
		rep.MeanAchievedMbps = achieved / float64(rep.TestsCompleted)
	}
	for i, s := range infos {
		util := 0.0
		if s.UplinkMbps > 0 && ran > 0 {
			util = delivered[i] * 8 / ran.Seconds() / 1e6 / s.UplinkMbps
		}
		rep.Servers[i] = ServerReport{
			ServerInfo:   s.ServerInfo,
			DeliveredMB:  delivered[i] / 1e6,
			Utilization:  util,
			PeakSessions: peakSessions[i],
		}
	}
	rep.AssignmentDigest = hex.EncodeToString(digest.Sum(nil))
}

// mix is splitmix64 over (seed, v) — the package's only randomness outside
// the seeded generators.
func mix(seed int64, v uint64) uint64 {
	return stats.SplitMix64(uint64(seed) ^ v*stats.SplitMix64Gamma)
}
