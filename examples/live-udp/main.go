// Live UDP: a complete Swiftest test over real sockets.
//
// Starts three in-process test servers on loopback (a miniature of the
// 20-server budget fleet of §5.2), then runs a full client test: PING-based
// server selection, the data-driven UDP probing of §5.1, convergence, and
// result reporting back to the servers for model refresh.
//
//lint:allow walltime live example over real sockets
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	swiftest "github.com/mobilebandwidth/swiftest"
)

func main() {
	// A small geo-distributed fleet: each server has a modest 15 Mbps
	// uplink; the client aggregates across them when the probing rate
	// exceeds one server's capacity, exactly like production Swiftest.
	// (Rates are kept small so the example behaves on any machine.)
	results := make(chan float64, 8)
	var pool []swiftest.ServerAddr
	for i := 0; i < 3; i++ {
		srv, err := swiftest.NewServer("127.0.0.1:0", swiftest.ServerOptions{
			UplinkMbps: 15,
			OnResult:   func(mbps float64) { results <- mbps },
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		pool = append(pool, swiftest.ServerAddr{Addr: srv.Addr(), UplinkMbps: 15})
		fmt.Printf("server %d listening on %s\n", i+1, srv.Addr())
	}

	// A bandwidth model for this loopback "technology": modes at 12 and
	// 35 Mbps. (In production this comes from FitModel over recent results.)
	model, err := swiftest.NewModel(
		swiftest.ModelComponent{Weight: 0.6, Mu: 12, Sigma: 2},
		swiftest.ModelComponent{Weight: 0.4, Mu: 35, Sigma: 5},
	)
	if err != nil {
		log.Fatal(err)
	}

	// The test stops when ten 50 ms samples agree within 3 % — about a
	// second here: three samples of ramp, one escalation past a single
	// server's uplink, then the window. A sample is the bytes that arrived
	// in a fixed window, by arrival time, so it does not depend on when this
	// process was scheduled; the deadline is for a link that really is
	// unsteady, and is not expected to be reached.
	res, err := swiftest.TestContext(context.Background(), swiftest.TestOptions{
		Servers:     pool,
		Model:       model,
		MaxDuration: 2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nbandwidth     : %.1f Mbps\n", res.BandwidthMbps)
	fmt.Printf("probing time  : %v\n", res.Duration.Round(time.Millisecond))
	fmt.Printf("selection time: %v (PING latency ranking)\n", res.SelectionTime.Round(time.Millisecond))
	fmt.Printf("data consumed : %.1f MB in %d samples\n", res.DataMB, len(res.Samples))
	fmt.Printf("escalations   : %d (started at %.0f Mbps)\n", res.RateChanges, res.InitialRateMbps)

	// The servers received the result via the Bye message (§5.1's feed for
	// periodic model refresh).
	select {
	case reported := <-results:
		fmt.Printf("server-side report: %.1f Mbps\n", reported)
	case <-time.After(2 * time.Second):
		fmt.Println("no server-side report received")
	}
}
