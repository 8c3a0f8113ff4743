package lint

import "testing"

// The training replay and the paired evaluation moved from earlystop (vetted
// by seedflow, maporder, vtcore and ctxflow) into exper. These fixtures pin
// exper into the same four enforcement sets, one violation each.

func TestSeedflowCoversExper(t *testing.T) {
	runFixture(t, Seedflow, "example.com/internal/exper", map[string]string{
		"replay.go": `package exper

import "math/rand"

func BadJitter() float64 { return rand.Float64() } // want "global math/rand source call rand.Float64"
`,
	})
}

func TestMaporderCoversExper(t *testing.T) {
	runFixture(t, Maporder, "example.com/internal/exper", map[string]string{
		"replay.go": `package exper

func BadRows(byProfile map[string][]float64) (rows []float64) {
	for _, rs := range byProfile {
		rows = append(rows, rs...) // want "append to rows inside a range over a map"
	}
	return rows
}
`,
	})
}

func TestVTCoreCoversExper(t *testing.T) {
	runFixture(t, VTCore, "example.com/internal/exper", map[string]string{
		"replay.go": `package exper

import "time"

var started = time.Now() //lint:allow walltime tempting but wrong // want "inside virtual-time core package"
`,
	})
}

func TestCtxFlowCoversExper(t *testing.T) {
	runFixture(t, CtxFlow, "example.com/internal/exper", map[string]string{
		"campaign.go": `package exper

func BadSweep(n int) { // want "exported BadSweep starts a goroutine but accepts no context.Context"
	for i := 0; i < n; i++ {
		go func() {}()
	}
}
`,
	})
}
