package fleet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/deploy"
	"github.com/mobilebandwidth/swiftest/internal/errdefs"
	"github.com/mobilebandwidth/swiftest/internal/obs"
)

// releaseLockedRef is releaseLocked as it stood before a release became a
// mark: a linear scan for the lease, then an append-shift of the tail. It
// keeps live equal to len(leases), so the readers of live see the count the
// old code read from len(leases).
func releaseLockedRef(s *server, seq uint64) bool {
	for i := range s.leases {
		if s.leases[i].seq == seq {
			s.load -= s.leases[i].mbps
			if s.load < 0 {
				s.load = 0
			}
			s.leases = append(s.leases[:i], s.leases[i+1:]...)
			s.live = len(s.leases)
			return true
		}
	}
	return false
}

// expireLockedRef is expireLocked as it stood then: rebuild the slice
// without the expired leases, decrementing load in grant order.
func expireLockedRef(s *server, at time.Duration) int {
	kept := s.leases[:0]
	reclaimed := 0
	for _, l := range s.leases {
		if l.expires > 0 && at >= l.expires {
			s.load -= l.mbps
			reclaimed++
			continue
		}
		kept = append(kept, l)
	}
	s.leases = kept
	s.live = len(s.leases)
	if s.load < 0 {
		s.load = 0
	}
	return reclaimed
}

// refFleet drives a Dispatcher whose lease removals all go through the
// reference bodies. Dispatch is shared code: claimLocked appends in both.
type refFleet struct{ d *Dispatcher }

// release is Registry.Release over releaseLockedRef.
func (f refFleet) release(l LeaseID) {
	r := f.d.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	s, err := r.serverLocked(l.Server)
	if err != nil || !releaseLockedRef(s, l.Seq) {
		return
	}
	if s.state == StateDraining && len(s.leases) == 0 {
		r.finishDrainLocked(s)
		r.updateStateGaugesLocked()
	}
	r.metrics.updateServer(s)
}

// reassign frees the old lease through the reference body first, exactly
// where Reassign frees it; Reassign's own releaseLocked then finds nothing,
// because the reference slice no longer holds the seq.
func (f refFleet) reassign(a Assignment, at time.Duration) (Assignment, error) {
	f.release(a.Lease)
	return f.d.Reassign(a, at)
}

// advance is Registry.Advance and advanceWindowLocked with expireLockedRef
// in place of expireLocked.
func (f refFleet) advance(at time.Duration) {
	r := f.d.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	for ; r.nextWindow <= at; r.nextWindow += r.window {
		windowEnd := r.nextWindow
		winSec := r.window.Seconds()
		changed := false
		for _, s := range r.servers {
			switch s.state {
			case StatePlanned, StateGone:
				continue
			}
			if s.rate > 0 {
				s.tokens += s.rate * winSec
				if s.tokens > s.burst {
					s.tokens = s.burst
				}
			}
			if expireLockedRef(s, windowEnd) > 0 && s.state == StateDraining && len(s.leases) == 0 {
				r.finishDrainLocked(s)
				changed = true
			}
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
	r.metrics.updateAllServers(r.servers)
}

// leaseBookPlan is four small servers with caps 8, 5, 3 and 2 at 5 Mbit/s a
// test, so the mix below saturates them by cap as well as by bucket.
func leaseBookPlan() deploy.Plan {
	var plan deploy.Plan
	for _, mbps := range []float64{40, 25, 15, 10} {
		plan.Purchases = append(plan.Purchases, deploy.Purchase{Config: deploy.ServerConfig{BandwidthMbps: mbps}, Count: 1})
		plan.TotalMbps += mbps
	}
	return plan
}

// TestLeaseBookkeepingMatchesReference runs two dispatchers in lockstep
// through a seeded mix of dispatches, releases in grant order and in random
// order, double releases, failovers, TTL expiry through Advance, silenced
// servers and drains. One keeps its leases with the marked, lazily compacted
// book; the other removes them eagerly with the reference bodies. After
// every step both must report the same servers — load and tokens equal in
// their bits — and every assignment, rejection and retry hint must match.
func TestLeaseBookkeepingMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			newDispatcher := func() *Dispatcher {
				d, err := NewDispatcher(leaseBookPlan(), nil, Config{
					ActivatePlanned: true,
					AvgTestDuration: time.Second,
					LeaseTTL:        1500 * time.Millisecond,
					Seed:            seed,
					Metrics:         obs.NewRegistry(),
				})
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			d, ref := newDispatcher(), refFleet{newDispatcher()}
			rng := rand.New(rand.NewSource(seed))

			var (
				at       time.Duration
				key      uint64
				held     []Assignment // outstanding, in grant order
				freed    []LeaseID
				silenced = -1
				drains   int
				seen     = map[string]int{}
			)
			check := func(step int, op string) {
				t.Helper()
				got, want := d.Registry().Servers(), ref.d.Registry().Servers()
				for i := range want {
					g, w := got[i], want[i]
					if math.Float64bits(g.LoadMbps) != math.Float64bits(w.LoadMbps) ||
						math.Float64bits(g.Tokens) != math.Float64bits(w.Tokens) {
						t.Fatalf("step %d (%s) server %d: load %v tokens %v, reference %v %v", step, op, i, g.LoadMbps, g.Tokens, w.LoadMbps, w.Tokens)
					}
					if g != w {
						t.Fatalf("step %d (%s) server %d: %+v, reference %+v", step, op, i, g, w)
					}
				}
				for i, s := range d.reg.servers {
					live := 0
					for j, l := range s.leases {
						if !l.released {
							live++
						}
						if j > 0 && s.leases[j-1].seq >= l.seq {
							t.Fatalf("step %d (%s) server %d: leases out of grant order at %d", step, op, i, j)
						}
					}
					if live != s.live {
						t.Fatalf("step %d (%s) server %d: %d unreleased leases, live count %d", step, op, i, live, s.live)
					}
				}
			}
			sameErr := func(step int, op string, got, want error) {
				t.Helper()
				var gs, ws *errdefs.SaturatedError
				if errors.As(got, &gs) != errors.As(want, &ws) || (got == nil) != (want == nil) {
					t.Fatalf("step %d (%s): err %v, reference %v", step, op, got, want)
				}
				if gs != nil && *gs != *ws {
					t.Fatalf("step %d (%s): %+v, reference %+v", step, op, *gs, *ws)
				}
			}
			release := func(i int) {
				l := held[i].Lease
				held = append(held[:i], held[i+1:]...)
				d.Registry().Release(l, at)
				ref.release(l)
				freed = append(freed, l)
			}

			for step := 0; step < 3000; step++ {
				at += time.Duration(rng.Intn(20)) * time.Millisecond
				var op string
				switch k := rng.Intn(20); {
				case k < 8:
					op = "dispatch"
					c := ClientInfo{Key: key, ClaimMbps: rng.Float64() * 7}
					key++
					a, err := d.Dispatch(c, at)
					b, errRef := ref.d.Dispatch(c, at)
					sameErr(step, op, err, errRef)
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("step %d: assignment %+v, reference %+v", step, a, b)
					}
					if err != nil {
						seen["rejected"]++
						continue
					}
					held = append(held, a)
				case k < 11 && len(held) > 0:
					op = "release oldest"
					release(0)
				case k < 14 && len(held) > 0:
					op = "release random"
					release(rng.Intn(len(held)))
				case k < 15 && len(freed) > 0:
					op = "release again"
					l := freed[rng.Intn(len(freed))]
					d.Registry().Release(l, at)
					ref.release(l)
				case k < 16 && len(held) > 0:
					op = "reassign"
					i := rng.Intn(len(held))
					a, err := d.Reassign(held[i], at)
					b, errRef := ref.reassign(held[i], at)
					sameErr(step, op, err, errRef)
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("step %d: failover %+v, reference %+v", step, a, b)
					}
					freed = append(freed, held[i].Lease)
					if err != nil {
						held = append(held[:i], held[i+1:]...)
						continue
					}
					seen["reassigned"]++
					held[i] = a
				case k < 19:
					op = "advance"
					at += time.Duration(rng.Intn(300)) * time.Millisecond
					if rng.Intn(8) == 0 {
						silenced = rng.Intn(5) - 1 // -1: everyone beats
					}
					for id := range d.reg.servers {
						if id != silenced {
							errA := d.Registry().Heartbeat(id, at)
							errB := ref.d.Registry().Heartbeat(id, at)
							sameErr(step, "heartbeat", errA, errB)
						}
					}
					before := d.Registry().Servers()
					d.Registry().Advance(at)
					ref.advance(at)
					for i, s := range d.Registry().Servers() {
						if s.Sessions < before[i].Sessions {
							seen["expired"]++
						}
					}
				default:
					if drains == 2 {
						continue
					}
					op = "drain"
					id := rng.Intn(len(d.reg.servers))
					sameErr(step, op, d.Registry().Drain(id, at), ref.d.Registry().Drain(id, at))
					drains++
				}
				check(step, op)
			}
			for _, s := range d.Registry().Servers() {
				if s.State == StateGone {
					seen["gone"]++
				}
			}
			for _, what := range []string{"rejected", "reassigned", "expired", "gone"} {
				if seen[what] == 0 {
					t.Errorf("the mix never exercised %q (%v)", what, seen)
				}
			}
		})
	}
}

// oneServerLeases dispatches n leases onto a one-server fleet sized to hold
// exactly n sessions at 1 Mbit/s a test.
func oneServerLeases(tb testing.TB, n int) (*Dispatcher, []LeaseID) {
	tb.Helper()
	plan := deploy.Plan{Purchases: []deploy.Purchase{{Config: deploy.ServerConfig{BandwidthMbps: float64(n)}, Count: 1}}, TotalMbps: float64(n)}
	d, err := NewDispatcher(plan, nil, Config{ActivatePlanned: true, PerTestMbps: 1, Metrics: obs.NewRegistry()})
	if err != nil {
		tb.Fatal(err)
	}
	leases := make([]LeaseID, n)
	for i := range leases {
		a, err := d.Dispatch(ClientInfo{Key: uint64(i)}, 0)
		if err != nil {
			tb.Fatalf("dispatch %d of %d: %v", i, n, err)
		}
		leases[i] = a.Lease
	}
	return d, leases
}

// TestReleaseZeroAllocs holds Release at zero heap allocations, in grant
// order and in random order, compactions included.
func TestReleaseZeroAllocs(t *testing.T) {
	for _, order := range []string{"grant", "random"} {
		t.Run(order, func(t *testing.T) {
			const n = 2000
			d, leases := oneServerLeases(t, n)
			if order == "random" {
				rand.New(rand.NewSource(5)).Shuffle(n, func(i, j int) { leases[i], leases[j] = leases[j], leases[i] })
			}
			i := 0
			allocs := testing.AllocsPerRun(n-1, func() {
				d.Registry().Release(leases[i], 0)
				i++
			})
			if allocs != 0 {
				t.Errorf("Release allocates %v times per call, want 0", allocs)
			}
			if s := d.Registry().Servers()[0].Sessions; s != 0 {
				t.Errorf("%d sessions left after releasing all %d", s, n)
			}
		})
	}
}

// BenchmarkRelease frees 2000 leases held on one server, in grant order (how
// a fleet of equal-length tests ends them) and in random order.
func BenchmarkRelease(b *testing.B) {
	for _, order := range []string{"grant", "random"} {
		b.Run(order, func(b *testing.B) {
			const n = 2000
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for done := 0; done < b.N; {
				b.StopTimer()
				d, leases := oneServerLeases(b, n)
				if order == "random" {
					rng.Shuffle(n, func(i, j int) { leases[i], leases[j] = leases[j], leases[i] })
				}
				r := d.Registry()
				b.StartTimer()
				for _, l := range leases {
					if done == b.N {
						break
					}
					r.Release(l, 0)
					done++
				}
			}
		})
	}
}
