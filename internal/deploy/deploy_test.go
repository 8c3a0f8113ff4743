package deploy

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestWorkloadRequiredMbps(t *testing.T) {
	// 10K tests/day × 1.2 s ≈ 0.139 concurrent; ×300 Mbps ×3 peak ≈ 125 Mbps.
	w := Workload{TestsPerDay: 10000, AvgTestDuration: 1200 * time.Millisecond, AvgBandwidth: 300}
	got := w.RequiredMbps()
	if got < 100 || got > 150 {
		t.Errorf("required = %g Mbps, want ≈125", got)
	}
	// Peak factor scales linearly.
	w2 := w
	w2.PeakFactor = 6
	if math.Abs(w2.RequiredMbps()-2*got) > 1e-9 {
		t.Error("peak factor not linear")
	}
}

func TestPlanPurchaseBasic(t *testing.T) {
	cat := SyntheticCatalogue()
	plan, err := PlanPurchase(cat, 1800, 0.075)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalMbps < 1800*1.075 {
		t.Errorf("plan covers %g Mbps, need ≥ %g", plan.TotalMbps, 1800*1.075)
	}
	if plan.MonthlyCost <= 0 {
		t.Error("zero-cost plan")
	}
	if plan.Servers() == 0 {
		t.Error("no servers purchased")
	}
}

func TestPlanPurchaseErrors(t *testing.T) {
	cat := SyntheticCatalogue()
	if _, err := PlanPurchase(cat, 0, 0.05); err == nil {
		t.Error("zero requirement accepted")
	}
	if _, err := PlanPurchase(cat, 1e9, 0.05); err == nil {
		t.Error("requirement beyond catalogue capacity accepted")
	}
	if _, err := PlanPurchase(nil, 100, 0.05); err == nil {
		t.Error("empty catalogue accepted")
	}
}

// TestBranchAndBoundMatchesBruteForce is the §5.2 solver's correctness
// anchor: on random small instances the branch-and-bound optimum equals the
// exhaustive optimum.
func TestBranchAndBoundMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nCfg := 2 + r.Intn(3)
		cat := make([]ServerConfig, nCfg)
		for i := range cat {
			cat[i] = ServerConfig{
				Name:          "c",
				BandwidthMbps: float64(100 * (1 + r.Intn(10))),
				PricePerMonth: float64(5 + r.Intn(300)),
				Available:     1 + r.Intn(4),
			}
		}
		var maxCap float64
		for _, c := range cat {
			maxCap += c.BandwidthMbps * float64(c.Available)
		}
		req := maxCap * (0.2 + 0.5*r.Float64()) / 1.075
		bb, err1 := PlanPurchase(cat, req, 0)
		bf, err2 := BruteForcePlan(cat, req, 0)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return math.Abs(bb.MonthlyCost-bf.MonthlyCost) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestSwiftestVsLegacyCost reproduces the §5.3 cost headline: Swiftest needs
// 20 × 100 Mbps budget servers where BTS-APP allocated 50 × 1 Gbps, cutting
// the backend expense by roughly 15×.
func TestSwiftestVsLegacyCost(t *testing.T) {
	cat := SyntheticCatalogue()
	// Swiftest's evaluation workload: ~10K tests/day, ≈1.2 s each; the team
	// purchased 20 × 100 Mbps (2 Gbps total), spread across the 8 IXP
	// domains — hence the 20-server coverage constraint.
	plan, err := PlanPurchase(cat, 1860, 0.075, PlanOptions{MinServers: 20}) // ×1.075 ≈ 2000 Mbps
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Servers(); got != 20 {
		t.Errorf("plan buys %d servers, want the 20-server budget fleet", got)
	}
	if plan.TotalMbps != 2000 {
		t.Errorf("plan capacity = %g Mbps, want 2000 (20 × 100 Mbps)", plan.TotalMbps)
	}
	legacy, err := LegacyBTSAppFleet(cat)
	if err != nil {
		t.Fatal(err)
	}
	ratio := legacy.MonthlyCost / plan.MonthlyCost
	if ratio < 12 || ratio > 18 {
		t.Errorf("cost ratio = %.1f×, want ≈15× (plan $%.0f vs legacy $%.0f)",
			ratio, plan.MonthlyCost, legacy.MonthlyCost)
	}
}

// TestMinServersConstraint checks that the coverage constraint forces more,
// smaller servers even when a big server would be cheaper.
func TestMinServersConstraint(t *testing.T) {
	cat := []ServerConfig{
		{Name: "big", BandwidthMbps: 1000, PricePerMonth: 50, Available: 5},
		{Name: "small", BandwidthMbps: 100, PricePerMonth: 10, Available: 50},
	}
	free, err := PlanPurchase(cat, 930, 0.075)
	if err != nil {
		t.Fatal(err)
	}
	if free.Servers() != 1 {
		t.Errorf("unconstrained plan buys %d servers, want the single big one", free.Servers())
	}
	constrained, err := PlanPurchase(cat, 930, 0.075, PlanOptions{MinServers: 10})
	if err != nil {
		t.Fatal(err)
	}
	if constrained.Servers() < 10 {
		t.Errorf("constrained plan buys %d servers, want ≥10", constrained.Servers())
	}
	if constrained.MonthlyCost < free.MonthlyCost {
		t.Error("constraint cannot reduce cost")
	}
	if _, err := PlanPurchase(cat, 930, 0.075, PlanOptions{MinServers: 1000}); err == nil {
		t.Error("unsatisfiable coverage constraint accepted")
	}
}

// TestBranchAndBoundMatchesBruteForceWithMinServers extends the equivalence
// check to the coverage-constrained problem.
func TestBranchAndBoundMatchesBruteForceWithMinServers(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nCfg := 2 + r.Intn(3)
		cat := make([]ServerConfig, nCfg)
		total := 0
		for i := range cat {
			cat[i] = ServerConfig{
				BandwidthMbps: float64(100 * (1 + r.Intn(10))),
				PricePerMonth: float64(5 + r.Intn(300)),
				Available:     1 + r.Intn(4),
			}
			total += cat[i].Available
		}
		var maxCap float64
		for _, c := range cat {
			maxCap += c.BandwidthMbps * float64(c.Available)
		}
		req := maxCap * (0.2 + 0.4*r.Float64()) / 1.075
		opt := PlanOptions{MinServers: r.Intn(total + 1)}
		bb, err1 := PlanPurchase(cat, req, 0, opt)
		bf, err2 := BruteForcePlan(cat, req, 0, opt)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return math.Abs(bb.MonthlyCost-bf.MonthlyCost) < 1e-6 && bb.Servers() >= opt.MinServers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestLegacyFleetMissingTier(t *testing.T) {
	if _, err := LegacyBTSAppFleet([]ServerConfig{{BandwidthMbps: 100, Available: 5}}); err == nil {
		t.Error("missing 1 Gbps tier accepted")
	}
}

func TestPlaceServersEven(t *testing.T) {
	cat := SyntheticCatalogue()
	plan, err := PlanPurchase(cat, 1860, 0.075, PlanOptions{MinServers: 20})
	if err != nil {
		t.Fatal(err)
	}
	placements, err := PlaceServers(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(placements) != len(IXPDomains) {
		t.Fatalf("placements = %d, want %d", len(placements), len(IXPDomains))
	}
	var total int
	var minM, maxM = math.Inf(1), math.Inf(-1)
	for _, p := range placements {
		total += len(p.Servers)
		minM = math.Min(minM, p.Mbps)
		maxM = math.Max(maxM, p.Mbps)
	}
	if total != plan.Servers() {
		t.Errorf("placed %d servers, plan has %d", total, plan.Servers())
	}
	// Even shares: no domain should carry more than one server-unit extra.
	if maxM-minM > plan.TotalMbps/float64(len(IXPDomains)) {
		t.Errorf("imbalanced placement: min %g max %g Mbps", minM, maxM)
	}
}

func TestPlaceServersWeighted(t *testing.T) {
	plan := Plan{
		Purchases: []Purchase{{Config: ServerConfig{Name: "s", BandwidthMbps: 100}, Count: 16}},
		TotalMbps: 1600,
	}
	shares := []float64{8, 1, 1, 1, 1, 1, 1, 1} // Beijing dominates
	placements, err := PlaceServers(plan, shares)
	if err != nil {
		t.Fatal(err)
	}
	if placements[0].Domain != "Beijing" {
		t.Fatal("domain order changed")
	}
	if len(placements[0].Servers) < 6 {
		t.Errorf("Beijing got %d servers of 16 with 8/15 share", len(placements[0].Servers))
	}
}

func TestPlaceServersValidation(t *testing.T) {
	plan := Plan{Purchases: []Purchase{{Config: ServerConfig{BandwidthMbps: 100}, Count: 1}}, TotalMbps: 100}
	if _, err := PlaceServers(plan, []float64{1, 2}); err == nil {
		t.Error("wrong share count accepted")
	}
	if _, err := PlaceServers(plan, []float64{1, 1, 1, 1, 1, 1, 1, 0}); err == nil {
		t.Error("zero share accepted")
	}
}

func TestSimulateUtilization(t *testing.T) {
	cat := SyntheticCatalogue()
	plan, err := PlanPurchase(cat, 1860, 0.075, PlanOptions{MinServers: 20})
	if err != nil {
		t.Fatal(err)
	}
	utils, err := SimulateUtilization(plan, UtilizationOptions{
		TestsPerDay: 10000,
		DrawBandwidth: func(rng *rand.Rand) float64 {
			return 100 + rng.Float64()*400
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(utils) != 30*24*60 {
		t.Fatalf("samples = %d, want 43200 minutes", len(utils))
	}
	var sum float64
	for _, u := range utils {
		if u < 0 {
			t.Fatal("negative utilization")
		}
		sum += u
	}
	mean := sum / float64(len(utils))
	// Figure 26: mean 8.2 %, median 4.8 % — low utilization with margins.
	if mean <= 0 || mean > 40 {
		t.Errorf("mean utilization = %.1f%%, want low double digits at most", mean)
	}
}

func TestSimulateUtilizationValidation(t *testing.T) {
	plan := Plan{Purchases: []Purchase{{Config: ServerConfig{BandwidthMbps: 100}, Count: 1}}}
	if _, err := SimulateUtilization(plan, UtilizationOptions{TestsPerDay: 10}); err == nil {
		t.Error("missing DrawBandwidth accepted")
	}
	if _, err := SimulateUtilization(Plan{}, UtilizationOptions{
		TestsPerDay:   10,
		DrawBandwidth: func(rng *rand.Rand) float64 { return 1 },
	}); err == nil {
		t.Error("empty plan accepted")
	}
}

// TestPoissonMean holds the sample mean to lambda, also far above the
// ≈745 where Knuth's exp(−lambda) underflows and an unsplit draw saturates.
func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, c := range []struct {
		lambda, tol float64
		n           int
	}{
		{lambda: 3.5, tol: 0.1, n: 20000},
		{lambda: 6000, tol: 60, n: 2000},
	} {
		var sum int
		for i := 0; i < c.n; i++ {
			sum += poisson(rng, c.lambda)
		}
		if mean := float64(sum) / float64(c.n); math.Abs(mean-c.lambda) > c.tol {
			t.Errorf("poisson mean = %g, want %g ± %g", mean, c.lambda, c.tol)
		}
	}
	if poisson(rng, 0) != 0 {
		t.Error("poisson(0) should be 0")
	}
}

func TestSyntheticCatalogueShape(t *testing.T) {
	cat := SyntheticCatalogue()
	if len(cat) == 0 {
		t.Fatal("empty catalogue")
	}
	for _, c := range cat {
		if c.BandwidthMbps < 100 || c.BandwidthMbps > 10000 {
			t.Errorf("%s: bandwidth %g outside the 100 Mbps–10 Gbps range of §5.2", c.Name, c.BandwidthMbps)
		}
		if c.PricePerMonth < 10 || c.PricePerMonth > 2609 {
			t.Errorf("%s: price %g outside the $10.41–$2609 range of §5.2", c.Name, c.PricePerMonth)
		}
	}
	// Bigger servers must cost more per unit but less is not required per
	// Mbps; check monotone pricing.
	for i := 1; i < len(cat); i++ {
		if cat[i].PricePerMonth <= cat[i-1].PricePerMonth {
			t.Error("catalogue prices not increasing with bandwidth")
		}
	}
}

// BruteForcePlan solves the same ILP by exhaustive enumeration. It is
// exponential and exists to cross-check the branch-and-bound solver on small
// instances (see the property tests above).
func BruteForcePlan(catalogue []ServerConfig, requiredMbps, margin float64, opts ...PlanOptions) (Plan, error) {
	if margin <= 0 {
		margin = 0.075
	}
	var opt PlanOptions
	if len(opts) > 0 {
		opt = opts[0]
	}
	need := requiredMbps * (1 + margin)
	configs := make([]ServerConfig, 0, len(catalogue))
	for _, c := range catalogue {
		if c.BandwidthMbps > 0 && c.Available > 0 {
			configs = append(configs, c)
		}
	}
	bestCost := math.Inf(1)
	var best []int
	counts := make([]int, len(configs))
	var rec func(i int, cost, got float64, units int)
	rec = func(i int, cost, got float64, units int) {
		if got >= need && units >= opt.MinServers {
			if cost < bestCost {
				bestCost = cost
				best = append([]int(nil), counts...)
			}
			return
		}
		if i >= len(configs) {
			return
		}
		for n := 0; n <= configs[i].Available; n++ {
			counts[i] = n
			rec(i+1, cost+float64(n)*configs[i].PricePerMonth, got+float64(n)*configs[i].BandwidthMbps, units+n)
		}
		counts[i] = 0
	}
	rec(0, 0, 0, 0)
	if math.IsInf(bestCost, 1) {
		return Plan{}, errors.New("deploy: no feasible plan found")
	}
	plan := Plan{RequiredMbps: need, MonthlyCost: bestCost}
	for i, n := range best {
		if n > 0 {
			plan.Purchases = append(plan.Purchases, Purchase{Config: configs[i], Count: n})
			plan.TotalMbps += float64(n) * configs[i].BandwidthMbps
		}
	}
	return plan, nil
}
