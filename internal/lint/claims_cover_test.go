package lint

import "testing"

// The paper-claims table prints numbers that CI diffs against a committed
// copy, so they must stay a pure function of the seed. These fixtures pin
// claims into the seedflow, maporder and vtcore enforcement sets, one
// violation each.

func TestSeedflowCoversClaims(t *testing.T) {
	runFixture(t, Seedflow, "example.com/internal/claims", map[string]string{
		"table.go": `package claims

import "math/rand"

func BadDraw() float64 { return rand.NormFloat64() } // want "global math/rand source call rand.NormFloat64"
`,
	})
}

func TestMaporderCoversClaims(t *testing.T) {
	runFixture(t, Maporder, "example.com/internal/claims", map[string]string{
		"table.go": `package claims

func BadFits(byTech map[string]float64) (modes []float64) {
	for _, m := range byTech {
		modes = append(modes, m) // want "append to modes inside a range over a map"
	}
	return modes
}
`,
	})
}

func TestVTCoreCoversClaims(t *testing.T) {
	runFixture(t, VTCore, "example.com/internal/claims", map[string]string{
		"claims.go": `package claims

import "time"

var started = time.Now() //lint:allow walltime tempting but wrong // want "inside virtual-time core package"
`,
	})
}
