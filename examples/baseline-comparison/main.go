// Baseline comparison: the §5.3 evaluation in miniature.
//
// Runs Swiftest against the three systems the paper compares it with —
// BTS-APP's probing-by-flooding (the commercial baseline and approximate
// ground truth), Netflix's FAST, and FastBTS — on identical emulated access
// links across the three access technologies, and prints the Figure 23–25
// style summary: test time, data usage, and accuracy.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	swiftest "github.com/mobilebandwidth/swiftest"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	techs := []swiftest.Tech{swiftest.Tech4G, swiftest.Tech5G, swiftest.TechWiFi}

	fmt.Println("system     | per-tech mean over 12 links each")
	for _, tech := range techs {
		model, err := swiftest.DefaultModel(tech)
		if err != nil {
			log.Fatal(err)
		}

		type agg struct {
			dur  time.Duration
			data float64
			acc  float64
		}
		sums := map[string]*agg{
			"bts-app": {}, "fast": {}, "fastbts": {}, "swiftest": {},
		}

		const trials = 12
		for i := 0; i < trials; i++ {
			// Draw a client link from the technology's own population model.
			capMbps := math.Max(5, model.Sample(rng))
			link := swiftest.LinkConfig{
				CapacityMbps: capMbps,
				RTT:          30 * time.Millisecond,
				Fluctuation:  0.01,
				Seed:         int64(i*911 + 13),
			}

			truth, err := swiftest.RunBTSApp(link)
			if err != nil {
				log.Fatal(err)
			}
			fast, err := swiftest.RunFAST(link)
			if err != nil {
				log.Fatal(err)
			}
			fbts, err := swiftest.RunFastBTS(link)
			if err != nil {
				log.Fatal(err)
			}
			sw, err := swiftest.SimulateTestContext(context.Background(), link, model, swiftest.SimulateOptions{})
			if err != nil {
				log.Fatal(err)
			}

			accuracy := func(result float64) float64 {
				m := math.Max(result, truth.BandwidthMbps)
				if m == 0 {
					return 1
				}
				return 1 - math.Abs(result-truth.BandwidthMbps)/m
			}
			add := func(name string, d time.Duration, data, acc float64) {
				sums[name].dur += d
				sums[name].data += data
				sums[name].acc += acc
			}
			add("bts-app", truth.Duration, truth.DataMB, 1)
			add("fast", fast.Duration, fast.DataMB, accuracy(fast.BandwidthMbps))
			add("fastbts", fbts.Duration, fbts.DataMB, accuracy(fbts.BandwidthMbps))
			add("swiftest", sw.Duration, sw.DataMB, accuracy(sw.BandwidthMbps))
		}

		fmt.Printf("\n%v:\n", tech)
		for _, name := range []string{"bts-app", "fast", "fastbts", "swiftest"} {
			a := sums[name]
			fmt.Printf("  %-9s time %6.2f s   data %7.1f MB   accuracy %.2f\n",
				name,
				(a.dur / trials).Seconds(),
				a.data/trials,
				a.acc/trials)
		}
	}
	fmt.Println("\npaper (§5.3): Swiftest is 2.9–16.5× faster and 3–16.7× lighter than")
	fmt.Println("FAST/FastBTS with 8–12% higher accuracy; BTS-APP floods for a fixed 10 s.")
}
