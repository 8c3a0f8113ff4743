package transport

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/obs"
)

// TestProbesShareServerSetRule holds the live probe to its virtual twin:
// the same 3 × 25 Mbit/s pool under the same rate schedule opens the same
// servers, in the same order, on loopback UDP and on the emulated link.
func TestProbesShareServerSetRule(t *testing.T) {
	pool := &ServerPool{}
	var simServers []core.SimServer
	for range 3 {
		s := startServer(t, ServerConfig{UplinkMbps: 25})
		pool.Servers = append(pool.Servers, PoolServer{Addr: s.Addr().String(), UplinkMbps: 25})
		simServers = append(simServers, core.SimServer{Addr: s.Addr().String(), UplinkMbps: 25})
	}
	udpTrace, simTrace := obs.NewTrace(0), obs.NewTrace(0)
	udp, err := NewUDPProbeContext(context.Background(), pool, rand.New(rand.NewSource(1)), ProbeConfig{Trace: udpTrace})
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Finish(0, 0)
	link := linksim.MustNew(linksim.Config{CapacityMbps: 100, RTT: 30 * time.Millisecond}, 1)
	sim := core.NewSimProbe(link, core.SimPoolConfig{Servers: simServers, Trace: simTrace})
	defer sim.Close()

	for step, rate := range []float64{24, 40, 60, 10} {
		for name, p := range map[string]core.Probe{"udp": udp, "sim": sim} {
			if err := p.SetRate(rate); err != nil {
				t.Fatalf("step %d: %s SetRate(%g): %v", step, name, rate, err)
			}
		}
		want := []int{2, 2, 3, 3}[step]
		if u, s := udp.ServersUsed(), sim.ServersUsed(); u != want || s != want {
			t.Fatalf("step %d (%g Mbit/s): servers used udp %d, sim %d, want %d", step, rate, u, s, want)
		}
	}
	adds := func(tr *obs.Trace) []string {
		var addrs []string
		for _, e := range tr.Events() {
			if e.Kind == obs.EventServerAdd {
				addrs = append(addrs, e.Note)
			}
		}
		return addrs
	}
	if u, s := adds(udpTrace), adds(simTrace); !reflect.DeepEqual(u, s) {
		t.Errorf("server_add order: udp %v, sim %v", u, s)
	}
	for name, p := range map[string]core.Probe{"udp": udp, "sim": sim} {
		if err := p.SetRate(math.NaN()); err == nil {
			t.Errorf("%s SetRate(NaN) accepted", name)
		}
	}
}
