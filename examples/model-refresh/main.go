// Model refresh: the §5.1 feedback loop that keeps Swiftest's statistical
// prior current.
//
// A deployment's bandwidth model is only useful while it matches the user
// population (the paper finds the multi-modal distributions stable "on a
// moderate time scale", so it refreshes the model periodically from recent
// test results). This example runs the loop end to end: a server feeds every
// reported result into a ModelStore, the population then shifts (an ISP
// upgrades its plans), and the refreshed model moves its modes — so the next
// test's initial probing rate is right again.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	swiftest "github.com/mobilebandwidth/swiftest"
)

func main() {
	// Seed the store with the calibrated 5G model.
	seed, err := swiftest.DefaultModel(swiftest.Tech5G)
	if err != nil {
		log.Fatal(err)
	}
	store, err := swiftest.NewModelStore(seed, swiftest.RefreshConfig{
		WindowSize: 5000,
		MinResults: 500,
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("seed model    :", store.Model())
	fmt.Printf("initial rate  : %.0f Mbps\n\n", store.Model().MostProbableMode().Rate)

	// A server wired into the store: every client-reported result feeds the
	// refresh window. (swiftest.NewServer(addr, swiftest.ServerOptions{
	// OnResult: store.Report}) does the same against real clients.)
	report := store.Report

	// The population shifts: most users now sit around 500 Mbps with a
	// 900 Mbps premium tier — the old 250 Mbps mode is history.
	shifted, err := swiftest.NewModel(
		swiftest.ModelComponent{Weight: 0.7, Mu: 500, Sigma: 45},
		swiftest.ModelComponent{Weight: 0.3, Mu: 900, Sigma: 70},
	)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4000; i++ {
		report(shifted.Sample(rng))
	}
	fmt.Printf("window holds  : %d recent results\n", store.Results())

	// Periodic refresh (a deployment calls store.Refresh on its cadence;
	// here one explicit refit shows the effect).
	refreshed, refitted, err := store.Refresh()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("refit ran     :", refitted)
	fmt.Println("refreshed     :", refreshed)
	fmt.Printf("new init rate : %.0f Mbps (population moved 250 → ≈500)\n\n",
		refreshed.MostProbableMode().Rate)

	// The refreshed model immediately drives better tests: a client on a
	// 520 Mbps link starts at the right mode and converges without
	// escalating through stale modes.
	res, err := swiftest.SimulateTestContext(context.Background(), swiftest.LinkConfig{
		CapacityMbps: 520,
		Fluctuation:  0.01,
		Seed:         3,
	}, refreshed, swiftest.SimulateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("test with refreshed model: %.0f Mbps in %v (%d escalations)\n",
		res.BandwidthMbps, res.Duration, res.RateChanges)
}
