package fleet

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/deploy"
	"github.com/mobilebandwidth/swiftest/internal/errdefs"
	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/obs"
)

// threeTierPlan is a small planner-style fleet: one big, one mid, one small
// server, placed in three IXP domains.
func threeTierPlan() (deploy.Plan, []deploy.Placement) {
	plan := deploy.Plan{
		Purchases: []deploy.Purchase{
			{Config: deploy.ServerConfig{BandwidthMbps: 1000, PricePerMonth: 62.4}, Count: 1},
			{Config: deploy.ServerConfig{BandwidthMbps: 500, PricePerMonth: 38}, Count: 1},
			{Config: deploy.ServerConfig{BandwidthMbps: 100, PricePerMonth: 10.41}, Count: 1},
		},
		TotalMbps: 1600,
	}
	placements := []deploy.Placement{
		{Domain: deploy.IXPDomains[0], Servers: []deploy.ServerConfig{plan.Purchases[0].Config}, Mbps: 1000},
		{Domain: deploy.IXPDomains[1], Servers: []deploy.ServerConfig{plan.Purchases[1].Config}, Mbps: 500},
		{Domain: deploy.IXPDomains[2], Servers: []deploy.ServerConfig{plan.Purchases[2].Config}, Mbps: 100},
	}
	return plan, placements
}

func TestDispatcherPlannedSlotsAndCapacity(t *testing.T) {
	plan, placements := threeTierPlan()
	d, err := NewDispatcher(plan, placements, Config{PerTestMbps: 5})
	if err != nil {
		t.Fatalf("NewDispatcher: %v", err)
	}
	servers := d.Registry().Servers()
	if len(servers) != 3 {
		t.Fatalf("got %d registry entries, want 3", len(servers))
	}
	for _, s := range servers {
		if s.State != StatePlanned {
			t.Errorf("server %d state %s, want planned", s.ID, s.State)
		}
	}
	wantCaps := []int{200, 100, 20}
	for i, s := range servers {
		if s.SessionCap != wantCaps[i] {
			t.Errorf("server %d cap %d, want %d", i, s.SessionCap, wantCaps[i])
		}
	}
	if got, want := d.Capacity(), plan.ConcurrentCapacity(5); got != want {
		t.Errorf("Capacity() = %d, want plan.ConcurrentCapacity = %d", got, want)
	}

	// Planned slots take no assignments.
	if _, err := d.Dispatch(ClientInfo{Key: 1}, 0); !errors.Is(err, errdefs.ErrNoReachableServer) {
		t.Fatalf("dispatch against all-planned fleet: err = %v, want ErrNoReachableServer", err)
	}
}

func TestRegisterClaimsPlannedSlotSameDomainFirst(t *testing.T) {
	plan, placements := threeTierPlan()
	d, err := NewDispatcher(plan, placements, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := d.Registry()
	// Register into domain of the *second* placement: must claim slot 1, not 0.
	id, err := r.Register("10.0.0.2:7777", deploy.IXPDomains[1], 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("same-domain register claimed slot %d, want 1", id)
	}
	// Unknown domain claims the first remaining planned slot.
	id2, err := r.Register("10.0.0.9:7777", "somewhere-else", 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != 0 {
		t.Fatalf("register claimed slot %d, want 0", id2)
	}
	// A third and fourth registration: slot 2, then an appended entry.
	id3, _ := r.Register("10.0.0.3:7777", deploy.IXPDomains[2], 100, 0)
	id4, err := r.Register("10.0.0.4:7777", deploy.IXPDomains[3], 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	if id3 != 2 || id4 != 3 {
		t.Fatalf("got slots %d,%d want 2,3", id3, id4)
	}
	if n := len(r.Servers()); n != 4 {
		t.Fatalf("registry has %d entries, want 4", n)
	}
}

// TestRegisterRejectsNonFiniteUplink: a NaN or infinite uplink would size
// the slot's admission from garbage, so Register refuses it like a
// non-positive one and the planned slots stay unclaimed.
func TestRegisterRejectsNonFiniteUplink(t *testing.T) {
	plan, placements := threeTierPlan()
	d, err := NewDispatcher(plan, placements, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := d.Registry()
	for _, uplink := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -5} {
		if id, err := r.Register("10.0.0.1:7777", deploy.IXPDomains[0], uplink, 0); err == nil {
			t.Errorf("Register(uplink=%g) claimed slot %d, want an error", uplink, id)
		}
	}
	for _, s := range r.Servers() {
		if s.State != StatePlanned {
			t.Errorf("server %d is %s after rejected registrations, want planned", s.ID, s.State)
		}
	}
}

func TestHeartbeatLivenessKSilentWindows(t *testing.T) {
	plan, placements := threeTierPlan()
	trace := obs.NewTrace(64)
	d, err := NewDispatcher(plan, placements, Config{Trace: trace, ActivatePlanned: true})
	if err != nil {
		t.Fatal(err)
	}
	r := d.Registry()
	w := r.HeartbeatWindow()
	k := faults.DefaultLostWindows

	// Servers 1 and 2 heartbeat every window; server 0 goes silent.
	at := time.Duration(0)
	for win := 0; win < k+2; win++ {
		for id := 1; id < 3; id++ {
			if err := r.Heartbeat(id, at); err != nil {
				t.Fatal(err)
			}
		}
		at += w
		r.Advance(at)
		st := r.Servers()[0].State
		if win < k-1 && st != StateLive {
			t.Fatalf("window %d: silent server state %s, want live (dies only after %d windows)", win, st, k)
		}
		if win >= k-1 && st != StateDead {
			t.Fatalf("window %d: silent server state %s, want dead", win, st)
		}
	}
	if st := r.Servers()[1].State; st != StateLive {
		t.Errorf("heartbeating server state %s, want live", st)
	}

	// Exactly one server_dead trace event for server 0.
	deadEvents := 0
	for _, ev := range trace.Events() {
		if ev.Kind == obs.EventServerDead {
			deadEvents++
			if !strings.Contains(ev.Note, "/slot0") {
				t.Errorf("server_dead note %q, want the slot-0 address", ev.Note)
			}
		}
	}
	if deadEvents != 1 {
		t.Errorf("got %d server_dead events, want 1", deadEvents)
	}

	// A fresh heartbeat revives the dead server.
	if err := r.Heartbeat(0, at); err != nil {
		t.Fatal(err)
	}
	at += w
	r.Advance(at)
	if st := r.Servers()[0].State; st != StateLive {
		t.Errorf("revived server state %s, want live", st)
	}
}

func TestDispatchRanksByLatencyThenLoad(t *testing.T) {
	plan, placements := threeTierPlan()
	d, err := NewDispatcher(plan, placements, Config{ActivatePlanned: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// A client in domain 1 must get the domain-1 server first even though
	// domain 0 has the bigger uplink.
	a, err := d.Dispatch(ClientInfo{Key: 42, Domain: deploy.IXPDomains[1]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Servers) != 3 {
		t.Fatalf("ranked list has %d servers, want 3", len(a.Servers))
	}
	if a.Servers[0].Domain != deploy.IXPDomains[1] {
		t.Errorf("primary in domain %q, want same-domain %q", a.Servers[0].Domain, deploy.IXPDomains[1])
	}
	if a.Lease.Server != a.Servers[0].ID {
		t.Errorf("lease on server %d, primary is %d", a.Lease.Server, a.Servers[0].ID)
	}
	// Ring distance from domain 1: domain 0 and domain 2 tie on latency;
	// load ratio breaks the tie (both idle → equal), then headroom: the
	// 1000 Mbps server in domain 0 wins over the 100 Mbps one in domain 2.
	if a.Servers[1].Domain != deploy.IXPDomains[0] {
		t.Errorf("first alternate in domain %q, want %q (bigger headroom)", a.Servers[1].Domain, deploy.IXPDomains[0])
	}
}

func TestDispatchDeterministicForFixedSeedAndSnapshot(t *testing.T) {
	run := func() []string {
		plan, placements := threeTierPlan()
		d, err := NewDispatcher(plan, placements, Config{ActivatePlanned: true, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for i := 0; i < 200; i++ {
			a, err := d.Dispatch(ClientInfo{Key: uint64(i), Domain: deploy.IXPDomains[i%8]}, 0)
			if err != nil {
				t.Fatalf("dispatch %d: %v", i, err)
			}
			var sb strings.Builder
			for _, s := range a.Servers {
				fmt.Fprintf(&sb, "%d,", s.ID)
			}
			got = append(got, sb.String())
		}
		return got
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("assignment %d differs across identical runs: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestAdmissionSaturationReturnsSaturatedError(t *testing.T) {
	// One tiny server: 10 Mbps at 5 Mbps/test → cap 2, burst 2 tokens.
	plan := deploy.Plan{Purchases: []deploy.Purchase{{Config: deploy.ServerConfig{BandwidthMbps: 10}, Count: 1}}, TotalMbps: 10}
	reg := obs.NewRegistry()
	d, err := NewDispatcher(plan, nil, Config{ActivatePlanned: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := d.Dispatch(ClientInfo{Key: uint64(i)}, 0); err != nil {
			t.Fatalf("dispatch %d within cap: %v", i, err)
		}
	}
	_, err = d.Dispatch(ClientInfo{Key: 9}, 0)
	if !errors.Is(err, errdefs.ErrFleetSaturated) {
		t.Fatalf("err = %v, want ErrFleetSaturated", err)
	}
	var sat *errdefs.SaturatedError
	if !errors.As(err, &sat) {
		t.Fatalf("err %T does not unwrap to *SaturatedError", err)
	}
	if sat.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want positive hint", sat.RetryAfter)
	}
	if c := reg.Counter("swiftest_fleet_rejected_total", "").Value(); c != 1 {
		t.Errorf("rejected counter = %d, want 1", c)
	}
	if c := reg.Counter("swiftest_fleet_assignments_total", "").Value(); c != 2 {
		t.Errorf("assignments counter = %d, want 2", c)
	}
}

// TestSaturationRetryAfterIsAWait saturates a server by its session cap an
// hour into the dispatcher's life. The hint must be the time left until the
// earliest lease expires, not that lease's elapsed-time deadline: at at = 0,
// where the two coincide, the saturation test above cannot tell them apart.
func TestSaturationRetryAfterIsAWait(t *testing.T) {
	// One tiny server: 10 Mbps at 5 Mbps/test → cap 2.
	plan := deploy.Plan{Purchases: []deploy.Purchase{{Config: deploy.ServerConfig{BandwidthMbps: 10}, Count: 1}}, TotalMbps: 10}
	const ttl = 30 * time.Second
	d, err := NewDispatcher(plan, nil, Config{ActivatePlanned: true, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	r := d.Registry()
	for at := r.HeartbeatWindow(); at <= time.Hour; at += r.HeartbeatWindow() {
		if err := r.Heartbeat(0, at); err != nil {
			t.Fatal(err)
		}
		r.Advance(at)
	}
	for i, at := range []time.Duration{time.Hour, time.Hour + 10*time.Second} {
		if _, err := d.Dispatch(ClientInfo{Key: uint64(i)}, at); err != nil {
			t.Fatalf("dispatch %d within cap: %v", i, err)
		}
	}
	_, err = d.Dispatch(ClientInfo{Key: 9}, time.Hour+20*time.Second)
	var sat *errdefs.SaturatedError
	if !errors.As(err, &sat) {
		t.Fatalf("err = %v, want *SaturatedError", err)
	}
	if sat.RetryAfter <= 0 || sat.RetryAfter > ttl {
		t.Fatalf("RetryAfter = %v, want a wait in (0, LeaseTTL = %v]", sat.RetryAfter, ttl)
	}
	// The first lease expires at 1h+30s, ten seconds after the request; the
	// bucket's 0.6 s refill wait does not bind.
	if want := 10 * time.Second; sat.RetryAfter != want {
		t.Errorf("RetryAfter = %v, want %v", sat.RetryAfter, want)
	}
}

func TestTokenBucketRefillsOnAdvance(t *testing.T) {
	// cap 2, rate = cap/avgDur = 2 per second with AvgTestDuration 1s.
	plan := deploy.Plan{Purchases: []deploy.Purchase{{Config: deploy.ServerConfig{BandwidthMbps: 10}, Count: 1}}, TotalMbps: 10}
	d, err := NewDispatcher(plan, nil, Config{ActivatePlanned: true, AvgTestDuration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	a0, err := d.Dispatch(ClientInfo{Key: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := d.Dispatch(ClientInfo{Key: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Dispatch(ClientInfo{Key: 2}, 0); !errors.Is(err, errdefs.ErrFleetSaturated) {
		t.Fatalf("want saturation with empty bucket, got %v", err)
	}
	// Release both sessions and advance one second: bucket refills.
	d.Registry().Release(a0.Lease, time.Second)
	d.Registry().Release(a1.Lease, time.Second)
	d.Registry().Advance(time.Second)
	if _, err := d.Dispatch(ClientInfo{Key: 3}, time.Second); err != nil {
		t.Fatalf("dispatch after refill: %v", err)
	}
}

func TestDrainRefusesNewAndFinishesOnLastRelease(t *testing.T) {
	plan := deploy.Plan{Purchases: []deploy.Purchase{
		{Config: deploy.ServerConfig{BandwidthMbps: 100}, Count: 2},
	}, TotalMbps: 200}
	trace := obs.NewTrace(16)
	d, err := NewDispatcher(plan, nil, Config{ActivatePlanned: true, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	r := d.Registry()
	a, err := d.Dispatch(ClientInfo{Key: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Drain(a.Lease.Server, 0); err != nil {
		t.Fatal(err)
	}
	if st := r.Servers()[a.Lease.Server].State; st != StateDraining {
		t.Fatalf("state %s, want draining", st)
	}
	// New dispatches land on the other server.
	b, err := d.Dispatch(ClientInfo{Key: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Lease.Server == a.Lease.Server {
		t.Fatalf("dispatch landed on draining server %d", a.Lease.Server)
	}
	// Releasing the last lease completes the drain.
	r.Release(a.Lease, 0)
	if st := r.Servers()[a.Lease.Server].State; st != StateGone {
		t.Fatalf("state after last release %s, want gone", st)
	}
	drained := false
	for _, ev := range trace.Events() {
		if ev.Kind == obs.EventDrain {
			drained = true
		}
	}
	if !drained {
		t.Error("no drain trace event recorded")
	}
}

func TestReassignMovesSessionToRankedAlternate(t *testing.T) {
	plan, placements := threeTierPlan()
	reg := obs.NewRegistry()
	d, err := NewDispatcher(plan, placements, Config{ActivatePlanned: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	r := d.Registry()
	a, err := d.Dispatch(ClientInfo{Key: 5, Domain: deploy.IXPDomains[0]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	primary := a.Lease.Server

	// Kill the primary: silence it while others heartbeat.
	w, k := r.HeartbeatWindow(), faults.DefaultLostWindows
	at := time.Duration(0)
	for win := 0; win < k; win++ {
		for _, s := range r.Servers() {
			if s.ID != primary {
				r.Heartbeat(s.ID, at)
			}
		}
		at += w
		r.Advance(at)
	}
	if st := r.Servers()[primary].State; st != StateDead {
		t.Fatalf("primary state %s, want dead", st)
	}

	moved, err := d.Reassign(a, at)
	if err != nil {
		t.Fatalf("Reassign: %v", err)
	}
	if moved.Lease.Server == primary {
		t.Fatalf("reassigned to the dead primary %d", primary)
	}
	if moved.Servers[0].ID != moved.Lease.Server {
		t.Errorf("new primary %d not first in ranked list (%d)", moved.Lease.Server, moved.Servers[0].ID)
	}
	if got := r.Servers()[primary].Sessions; got != 0 {
		t.Errorf("dead primary still holds %d sessions", got)
	}
	if got := r.Servers()[moved.Lease.Server].Sessions; got != 1 {
		t.Errorf("new primary holds %d sessions, want 1", got)
	}
	if c := reg.Counter("swiftest_fleet_failovers_total", "").Value(); c != 1 {
		t.Errorf("failover counter = %d, want 1", c)
	}
}

func TestLeaseTTLReclaimsLeakedSessions(t *testing.T) {
	plan := deploy.Plan{Purchases: []deploy.Purchase{{Config: deploy.ServerConfig{BandwidthMbps: 10}, Count: 1}}, TotalMbps: 10}
	d, err := NewDispatcher(plan, nil, Config{ActivatePlanned: true, LeaseTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	r := d.Registry()
	if _, err := d.Dispatch(ClientInfo{Key: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if got := r.Servers()[0].Sessions; got != 1 {
		t.Fatalf("sessions = %d, want 1", got)
	}
	// Never released; after the TTL the registry reclaims the slot.
	r.Advance(2 * time.Second)
	if got := r.Servers()[0].Sessions; got != 0 {
		t.Fatalf("sessions after TTL = %d, want 0", got)
	}
}

func TestStateGaugesTrackTransitions(t *testing.T) {
	plan, placements := threeTierPlan()
	reg := obs.NewRegistry()
	d, err := NewDispatcher(plan, placements, Config{ActivatePlanned: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	r := d.Registry()
	live := reg.Gauge("swiftest_fleet_servers_live", "")
	dead := reg.Gauge("swiftest_fleet_servers_dead", "")
	if got := live.Value(); got != 3 {
		t.Fatalf("live gauge = %g, want 3", got)
	}
	// Silence everyone for K windows.
	at := time.Duration(faults.DefaultLostWindows) * r.HeartbeatWindow()
	r.Advance(at)
	if got := live.Value(); got != 0 {
		t.Errorf("live gauge after blackout = %g, want 0", got)
	}
	if got := dead.Value(); got != 3 {
		t.Errorf("dead gauge after blackout = %g, want 3", got)
	}
}

func TestNewDispatcherFromArtifactRoundTrip(t *testing.T) {
	plan, placements := threeTierPlan()
	art := deploy.NewArtifact(deploy.Workload{TestsPerDay: 100000, AvgTestDuration: 1200 * time.Millisecond, AvgBandwidth: 40, PeakFactor: 2}, plan, placements)
	var sb strings.Builder
	if err := art.Encode(&sb); err != nil {
		t.Fatal(err)
	}
	parsed, err := deploy.ParseArtifact([]byte(sb.String()))
	if err != nil {
		t.Fatalf("ParseArtifact: %v", err)
	}
	d, err := NewDispatcherFromArtifact(parsed, Config{ActivatePlanned: true})
	if err != nil {
		t.Fatalf("NewDispatcherFromArtifact: %v", err)
	}
	if got := len(d.Registry().Servers()); got != 3 {
		t.Fatalf("dispatcher has %d servers, want 3", got)
	}
	if _, err := d.Dispatch(ClientInfo{Key: 1}, 0); err != nil {
		t.Fatalf("dispatch on round-tripped plan: %v", err)
	}
}

func BenchmarkDispatch(b *testing.B) {
	plan, placements := threeTierPlan()
	d, err := NewDispatcher(plan, placements, Config{ActivatePlanned: true, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := d.Registry()
	b.ReportAllocs()
	b.ResetTimer()
	// Virtual time advances 5ms per decision so the token buckets refill;
	// Advance amortises to one window fold per ~100 iterations.
	at := time.Duration(0)
	n := len(r.Servers())
	for i := 0; i < b.N; i++ {
		at += 5 * time.Millisecond
		for id := 0; id < n; id++ {
			_ = r.Heartbeat(id, at)
		}
		r.Advance(at)
		a, err := d.Dispatch(ClientInfo{Key: uint64(i), Domain: deploy.IXPDomains[i%8]}, at)
		if err != nil {
			b.Fatal(err)
		}
		r.Release(a.Lease, at)
	}
}

// TestDispatchMintsLeaseTokens pins the keyed-fleet contract: every
// assignment on a keyed dispatcher carries a token the data plane verifies
// under the same key, bound to the lease (distinct per assignment), and open
// fleets stay tokenless.
func TestDispatchMintsLeaseTokens(t *testing.T) {
	const key = 0x5157494654455354
	plan, placements := threeTierPlan()
	d, err := NewDispatcher(plan, placements, Config{ActivatePlanned: true, AuthKey: key})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := d.Dispatch(ClientInfo{Key: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := d.Dispatch(ClientInfo{Key: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Assignment{a1, a2} {
		if a.Token.IsZero() {
			t.Fatal("keyed dispatcher issued a zero token")
		}
		if !a.Token.Verify(key) {
			t.Errorf("token %v does not verify under the fleet key", a.Token)
		}
		if a.Token.Verify(key ^ 1) {
			t.Errorf("token %v verifies under a foreign key", a.Token)
		}
		if got, want := a.Token.Seq, a.Lease.Seq; got != want {
			t.Errorf("token seq = %d, want lease seq %d", got, want)
		}
	}
	if a1.Token == a2.Token {
		t.Error("two assignments share one token")
	}

	// Failover re-mints for the new lease.
	moved, err := d.Reassign(a1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Token.IsZero() || !moved.Token.Verify(key) || moved.Token == a1.Token {
		t.Errorf("failover token %v not re-minted for the new lease", moved.Token)
	}

	// Open fleet: no token.
	open, err := NewDispatcher(plan, placements, Config{ActivatePlanned: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := open.Dispatch(ClientInfo{Key: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Token.IsZero() {
		t.Errorf("open dispatcher issued token %v, want zero", a.Token)
	}
}

// TestDispatchTokenExpiry pins the lease-deadline arithmetic: with TokenTTL
// set, a token minted at elapsed time `at` expires exactly at
// TokenEpochMS + at + TTL, deterministically — and without TokenEpochMS the
// constructor refuses, forcing the live wrapper to stamp the epoch.
func TestDispatchTokenExpiry(t *testing.T) {
	const key = 0x5157494654455354
	const epochMS = uint64(1_700_000_000_000)
	plan, placements := threeTierPlan()
	d, err := NewDispatcher(plan, placements, Config{
		ActivatePlanned: true,
		AuthKey:         key,
		TokenTTL:        2 * time.Minute,
		TokenEpochMS:    epochMS,
	})
	if err != nil {
		t.Fatal(err)
	}
	at := 30 * time.Second
	a, err := d.Dispatch(ClientInfo{Key: 1}, at)
	if err != nil {
		t.Fatal(err)
	}
	want := epochMS + uint64((at + 2*time.Minute).Milliseconds())
	if a.Token.Expires != want {
		t.Errorf("token expires at %d, want epoch+at+ttl = %d", a.Token.Expires, want)
	}
	if !a.Token.Verify(key) {
		t.Error("expiring token does not verify under the fleet key")
	}
	if a.Token.ExpiredAt(want) {
		t.Error("token counts as expired at its own deadline")
	}
	if !a.Token.ExpiredAt(want + 1) {
		t.Error("token still valid past its deadline")
	}

	// Without a TTL the token never expires.
	noTTL, err := NewDispatcher(plan, placements, Config{ActivatePlanned: true, AuthKey: key})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := noTTL.Dispatch(ClientInfo{Key: 2}, at)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Token.Expires != 0 {
		t.Errorf("TTL-less token carries expiry %d, want 0", a2.Token.Expires)
	}

	// TTL without an epoch is a configuration error, not a silent footgun.
	if _, err := NewDispatcher(plan, placements, Config{
		ActivatePlanned: true, AuthKey: key, TokenTTL: time.Minute,
	}); err == nil {
		t.Error("NewDispatcher accepted TokenTTL without TokenEpochMS")
	}
}
