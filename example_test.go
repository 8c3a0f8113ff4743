package swiftest_test

import (
	"context"
	"fmt"
	"time"

	swiftest "github.com/mobilebandwidth/swiftest"
)

// ExampleSimulateTestContext runs one Swiftest bandwidth test on an emulated
// 5G access link — the smallest end-to-end use of the library.
func ExampleSimulateTestContext() {
	model, err := swiftest.NewModel(
		swiftest.ModelComponent{Weight: 0.6, Mu: 300, Sigma: 40},
		swiftest.ModelComponent{Weight: 0.4, Mu: 600, Sigma: 60},
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := swiftest.SimulateTestContext(context.Background(), swiftest.LinkConfig{
		CapacityMbps: 310,
		RTT:          25 * time.Millisecond,
		Seed:         1,
	}, model, swiftest.SimulateOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("measured ≈%.0f Mbps, converged: %v\n", res.BandwidthMbps, res.Converged)
	// Output: measured ≈310 Mbps, converged: true
}

// ExampleNewModel builds a bandwidth model and inspects the mode the engine
// will start probing at.
func ExampleNewModel() {
	model, err := swiftest.NewModel(
		swiftest.ModelComponent{Weight: 0.25, Mu: 100, Sigma: 20},
		swiftest.ModelComponent{Weight: 0.55, Mu: 300, Sigma: 50},
		swiftest.ModelComponent{Weight: 0.20, Mu: 800, Sigma: 90},
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("initial probing rate: %.0f Mbps\n", model.MostProbableMode().Rate)
	next, _ := model.NextLargerMode(300)
	fmt.Printf("first escalation: %.0f Mbps\n", next.Rate)
	// Output:
	// initial probing rate: 300 Mbps
	// first escalation: 800 Mbps
}

// ExampleRunBTSApp runs the 10-second flooding baseline on the same emulated
// link class, for comparison with SimulateTestContext.
func ExampleRunBTSApp() {
	rep, err := swiftest.RunBTSApp(swiftest.LinkConfig{CapacityMbps: 200, Seed: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("system=%s duration=%v connections=%d\n", rep.System, rep.Duration, rep.Connections)
	// Output: system=bts-app duration=10s connections=8
}
