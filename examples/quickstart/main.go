// Quickstart: run one Swiftest bandwidth test on an emulated 5G access link.
//
// This is the smallest end-to-end use of the library: pick the calibrated 5G
// bandwidth model, describe the access link under test, and run the
// data-driven probing engine. The whole test completes in microseconds of
// wall-clock time because the link is emulated in virtual time — the probing
// logic is identical to the real UDP transport's (see examples/live-udp).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	swiftest "github.com/mobilebandwidth/swiftest"
)

func main() {
	// The statistical prior of §5.1: the multi-modal Gaussian bandwidth
	// distribution of 5G access, calibrated from the measurement study.
	model, err := swiftest.DefaultModel(swiftest.Tech5G)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("5G bandwidth model:", model)
	fmt.Printf("initial probing rate (most probable mode): %.0f Mbps\n\n",
		model.MostProbableMode().Rate)

	// A realistic 5G access link: 350 Mbps bottleneck, 25 ms RTT, 1 % noise.
	link := swiftest.LinkConfig{
		CapacityMbps: 350,
		RTT:          25 * time.Millisecond,
		Fluctuation:  0.01,
		Seed:         42,
	}

	res, err := swiftest.SimulateTestContext(context.Background(), link, model, swiftest.SimulateOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("measured bandwidth : %.1f Mbps (true capacity 350)\n", res.BandwidthMbps)
	fmt.Printf("test duration      : %v (BTS-APP would take a fixed 10 s)\n", res.Duration)
	fmt.Printf("data consumed      : %.1f MB\n", res.DataMB)
	fmt.Printf("rate escalations   : %d (initial %.0f Mbps)\n", res.RateChanges, res.InitialRateMbps)
	fmt.Printf("converged          : %v (last 10 samples within 3%%)\n", res.Converged)
}
