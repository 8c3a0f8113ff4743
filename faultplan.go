package swiftest

import "github.com/mobilebandwidth/swiftest/internal/faults"

// FaultPlan is a declarative, seeded schedule of faults for a bandwidth
// test: server blackouts, handshake drops, burst-loss windows, delayed or
// duplicated pongs, and rate-cap squeezes. The same plan drives the
// virtual-time emulator (SimulateOptions.Faults) and real servers
// (ServerOptions.FaultPlan), producing the same fault sequence in both
// worlds — and, with a fixed seed, on every rerun.
type FaultPlan = faults.Plan

// Fault is one scheduled clause of a FaultPlan. Times are milliseconds of
// elapsed test time (virtual under SimulateTestContext, wall time since NewServer
// for real servers).
type Fault = faults.Fault

// FaultKind selects the fault type of a Fault clause.
type FaultKind = faults.Kind

// The fault vocabulary. Each value is also the JSON "kind" string.
const (
	// FaultBlackout makes a server fall silent mid-test, like a crashed
	// process: inbound datagrams are ignored and nothing is paced.
	FaultBlackout = faults.Blackout
	// FaultHandshakeDrop discards session-setup requests while active.
	FaultHandshakeDrop = faults.HandshakeDrop
	// FaultBurstLoss drops each probe datagram with probability Prob.
	FaultBurstLoss = faults.BurstLoss
	// FaultPongDelay holds pongs back, inflating the apparent RTT.
	FaultPongDelay = faults.PongDelay
	// FaultPongDup duplicates pongs.
	FaultPongDup = faults.PongDup
	// FaultRateCap clamps the server's pacing to CapMbps.
	FaultRateCap = faults.RateCap
)

// AllServers as a Fault.Server index targets every server in the pool.
const AllServers = faults.AllServers

// ParseFaultPlan decodes and validates a JSON fault plan. Unknown fields
// are rejected so schema typos fail loudly instead of silently injecting
// nothing.
func ParseFaultPlan(data []byte) (*FaultPlan, error) { return faults.Parse(data) }

// LoadFaultPlan reads and parses a JSON fault plan from path.
func LoadFaultPlan(path string) (*FaultPlan, error) { return faults.Load(path) }
