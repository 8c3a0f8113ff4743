package transport

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestServerParallelClients hammers one Server with many concurrent client
// probes while other goroutines poll its counters — the §5.2 budget-server
// situation where sessions from many users multiplex one uplink. The test
// asserts functional outcomes (every test accepted, every Bye observed, the
// server drains to zero sessions) and doubles as the concurrency gate: under
// `go test -race` it drives the run loop against the pollers that
// read its counters from outside.
func TestServerParallelClients(t *testing.T) {
	var results atomic.Int64
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		UplinkMbps: 10000,
		OnResult:   func(mbps float64) { results.Add(1) },
	})
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	defer srv.Close()
	addr := srv.Addr().String()

	const clients = 12
	var wg sync.WaitGroup

	// Background pollers exercise the read paths of the shared state while
	// sessions churn.
	pollStop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-pollStop:
				return
			default:
				_ = srv.ActiveSessions()
				_ = srv.BytesSent()
			}
		}
	}()

	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			pool := &ServerPool{Servers: []PoolServer{{Addr: addr, UplinkMbps: 10000.0 / clients}}}
			probe, err := NewUDPProbeContext(context.Background(), pool, rng)
			if err != nil {
				errs <- err
				return
			}
			for _, mbps := range []float64{1, 5, 2, 8} {
				if err := probe.SetRate(mbps); err != nil {
					errs <- err
					return
				}
				if _, ok := probe.NextSample(); !ok {
					probe.Finish(0, probe.Elapsed())
					errs <- nil
					return
				}
				_ = probe.Jitter()
				_ = probe.DataMB()
			}
			probe.Finish(rng.Float64()*100, probe.Elapsed())
			errs <- nil
		}(int64(i + 1))
	}

	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Errorf("client failed: %v", err)
		}
	}
	close(pollStop)
	wg.Wait()

	// Every Bye must have been delivered to OnResult; give the acked
	// teardowns a moment to drain.
	deadline := time.Now().Add(5 * time.Second)
	for results.Load() < clients && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := results.Load(); got != clients {
		t.Errorf("OnResult saw %d results, want %d", got, clients)
	}
	for srv.ActiveSessions() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := srv.ActiveSessions(); n != 0 {
		t.Errorf("server still tracks %d sessions after all Byes", n)
	}
	if srv.BytesSent() == 0 {
		t.Error("server paced no probe bytes despite active tests")
	}
}

// TestServerCloseDuringLoad closes the server while clients are mid-test:
// no goroutine may leak or panic, and Close must wait for the run loop.
func TestServerCloseDuringLoad(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{UplinkMbps: 1000})
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	addr := srv.Addr().String()

	const clients = 6
	var wg sync.WaitGroup
	probes := make([]*UDPProbe, clients)
	for i := 0; i < clients; i++ {
		pool := &ServerPool{Servers: []PoolServer{{Addr: addr, UplinkMbps: 1000.0 / clients}}}
		probe, err := NewUDPProbeContext(context.Background(), pool, rand.New(rand.NewSource(int64(i+100))))
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		probes[i] = probe
		wg.Add(1)
		go func(p *UDPProbe) {
			defer wg.Done()
			if err := p.SetRate(3); err != nil {
				return // server may already be closing — that's the point
			}
			p.NextSample()
		}(probe)
	}

	time.Sleep(50 * time.Millisecond) // let pacers spin up
	if err := srv.Close(); err != nil {
		t.Errorf("closing under load: %v", err)
	}
	wg.Wait()
	for _, p := range probes {
		p.Finish(0, 0)
	}
	// Closing twice is a no-op, not a double-close panic.
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}
