package core

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/errdefs"
	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/obs"
)

var errRefused = errors.New("handshake refused")

// scriptedPool is the I/O side of a ServerSet under test: refuse[i] fails
// server i's handshake, and server i delivers nothing from window silent[i]
// on (a negative entry never falls silent).
type scriptedPool struct {
	refuse   []bool
	silent   []int
	window   int
	opens    []int // Open calls, in order
	released []int
	paced    map[int]float64
}

func newScriptedPool(n int) *scriptedPool {
	p := &scriptedPool{refuse: make([]bool, n), silent: make([]int, n), paced: map[int]float64{}}
	for i := range p.silent {
		p.silent[i] = -1
	}
	return p
}

func (p *scriptedPool) io() ServerIO {
	return ServerIO{
		Open: func(i int) error {
			p.opens = append(p.opens, i)
			if p.refuse[i] {
				return errRefused
			}
			return nil
		},
		Pace:    func(i int, mbps float64) { p.paced[i] = mbps },
		Release: func(i int) { p.released = append(p.released, i) },
		Elapsed: func() time.Duration { return time.Duration(p.window) * 50 * time.Millisecond },
	}
}

func (p *scriptedPool) delivered(i int) int64 {
	if p.silent[i] >= 0 && p.window >= p.silent[i] {
		return 0
	}
	return 1500
}

// window folds one sample window into set.
func (p *scriptedPool) fold(set *ServerSet) bool {
	p.window++
	return set.Window(p.io(), p.delivered)
}

func newTestSet(uplinks []float64, trace *obs.Trace) *ServerSet {
	var set ServerSet
	set.Reset(len(uplinks), faults.DefaultLostWindows, trace)
	for i, u := range uplinks {
		set.Describe(i, string(rune('a'+i)), u)
	}
	return &set
}

// setStep is one call on a ServerSet: SetTarget(target), or windows sample
// windows folded when windows > 0.
type setStep struct {
	target  float64
	windows int
	err     error // SetTarget's error must match (errors.Is); errAny matches any
}

var errAny = errors.New("any error")

func TestServerSet(t *testing.T) {
	cases := []struct {
		name    string
		uplinks []float64
		refuse  []int
		silent  map[int]int // server → first silent window
		steps   []setStep
		// After the last step:
		opens     []int
		shares    []float64 // per server; a server not live reads 0
		used      int
		lost      int
		released  []int
		exhausted bool
	}{
		{
			name:    "exact cover",
			uplinks: []float64{20, 20, 20},
			steps:   []setStep{{target: 38}},
			opens:   []int{0, 1},
			shares:  []float64{20, 18, 0},
			used:    2,
		},
		{
			name:    "headroom opens one more",
			uplinks: []float64{25, 25, 25},
			steps:   []setStep{{target: 24}},
			opens:   []int{0, 1},
			shares:  []float64{24, 0, 0},
			used:    2,
		},
		{
			name:    "a lower rate keeps every server open",
			uplinks: []float64{25, 25, 25},
			steps:   []setStep{{target: 60}, {target: 10}},
			opens:   []int{0, 1, 2},
			shares:  []float64{10, 0, 0},
			used:    3,
		},
		{
			name:    "uncapped single server",
			uplinks: []float64{0},
			steps:   []setStep{{target: 1e6}},
			opens:   []int{0},
			shares:  []float64{1e6},
			used:    1,
		},
		{
			name:    "uncapped server covers any rate",
			uplinks: []float64{-1, 10},
			steps:   []setStep{{target: 500}},
			opens:   []int{0},
			shares:  []float64{500, 0},
			used:    1,
		},
		{
			name:    "handshake failure skips a server for good",
			uplinks: []float64{25, 25, 25},
			refuse:  []int{0},
			steps:   []setStep{{target: 30}, {target: 0}, {target: 30}},
			opens:   []int{0, 1, 2},
			shares:  []float64{0, 25, 5},
			used:    2,
		},
		{
			name:     "a loss opens a replacement",
			uplinks:  []float64{25, 25, 25},
			silent:   map[int]int{0: 1, 1: 1},
			steps:    []setStep{{target: 24}, {windows: faults.DefaultLostWindows}},
			opens:    []int{0, 1, 2},
			shares:   []float64{0, 24, 0},
			used:     3,
			lost:     1,
			released: []int{0},
		},
		{
			name:      "losing the last server exhausts the set",
			uplinks:   []float64{25},
			silent:    map[int]int{0: 3},
			steps:     []setStep{{target: 10}, {windows: 2 + faults.DefaultLostWindows}},
			opens:     []int{0},
			shares:    []float64{0},
			used:      1,
			lost:      1,
			released:  []int{0},
			exhausted: true,
		},
		{
			name:    "an exhausted set refuses a positive rate",
			uplinks: []float64{25},
			silent:  map[int]int{0: 1},
			steps: []setStep{
				{target: 10}, {windows: faults.DefaultLostWindows},
				{target: 0}, {target: 5, err: errdefs.ErrNoReachableServer},
			},
			opens:     []int{0},
			shares:    []float64{0},
			used:      1,
			lost:      1,
			released:  []int{0},
			exhausted: true,
		},
		{
			name:      "no server answers",
			uplinks:   []float64{25, 25},
			refuse:    []int{0, 1},
			steps:     []setStep{{target: 10, err: errRefused}},
			opens:     []int{0, 1},
			shares:    []float64{0, 0},
			exhausted: true,
		},
		{
			name:    "zero target opens nothing and is not exhausted",
			uplinks: []float64{25, 25},
			silent:  map[int]int{0: 0, 1: 0},
			steps:   []setStep{{target: 0}, {windows: 2 * faults.DefaultLostWindows}},
			shares:  []float64{0, 0},
		},
		{
			name:    "invalid targets are refused and leave the set as it was",
			uplinks: []float64{25, 25},
			steps: []setStep{
				{target: 30},
				{target: -1, err: errAny},
				{target: math.NaN(), err: errAny},
				{target: math.Inf(1), err: errAny},
			},
			opens:  []int{0, 1},
			shares: []float64{25, 5},
			used:   2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.NewTrace(0)
			set := newTestSet(tc.uplinks, tr)
			pool := newScriptedPool(len(tc.uplinks))
			for _, i := range tc.refuse {
				pool.refuse[i] = true
			}
			for i, w := range tc.silent {
				pool.silent[i] = w
			}
			alive := true
			for k, st := range tc.steps {
				if st.windows > 0 {
					for range st.windows {
						alive = pool.fold(set)
					}
					continue
				}
				err := set.SetTarget(st.target, pool.io())
				switch {
				case st.err == nil && err != nil:
					t.Fatalf("step %d: SetTarget(%g) = %v", k, st.target, err)
				case st.err == errAny && err == nil, st.err != nil && st.err != errAny && !errors.Is(err, st.err):
					t.Fatalf("step %d: SetTarget(%g) = %v, want %v", k, st.target, err, st.err)
				}
				alive = !set.exhausted()
			}
			if !reflect.DeepEqual(pool.opens, tc.opens) {
				t.Errorf("opens = %v, want %v", pool.opens, tc.opens)
			}
			for i, want := range tc.shares {
				got := 0.0
				if set.Live(i) {
					got = pool.paced[i]
				}
				if got != want {
					t.Errorf("server %d share = %g, want %g", i, got, want)
				}
			}
			if set.ServersUsed() != tc.used || set.ServersLost() != tc.lost {
				t.Errorf("used/lost = %d/%d, want %d/%d", set.ServersUsed(), set.ServersLost(), tc.used, tc.lost)
			}
			if !reflect.DeepEqual(pool.released, tc.released) {
				t.Errorf("released = %v, want %v", pool.released, tc.released)
			}
			if alive == tc.exhausted || set.exhausted() != tc.exhausted {
				t.Errorf("exhausted = %v (last call alive %v), want %v", set.exhausted(), alive, tc.exhausted)
			}
			var adds, losses int
			for _, e := range tr.Events() {
				switch e.Kind {
				case obs.EventServerAdd:
					adds++
				case obs.EventServerLost:
					losses++
				}
			}
			if adds != tc.used || losses != tc.lost {
				t.Errorf("server_add/server_lost events = %d/%d, want %d/%d", adds, losses, tc.used, tc.lost)
			}
		})
	}
}

// FuzzServerSet drives a ServerSet over random pools and schedules and
// checks §5.1's invariants after every call. Each pool byte is a server:
// bits 0–4 its uplink (0 uncapped, else ×5 Mbps), bit 5 a refused
// handshake, bits 6–7 when it falls silent (never, window 2, window 6, at
// once). Each schedule byte with bit 7 set folds (b&7)+1 windows; 126 and
// 127 set a negative and a NaN target; any other sets a target of 2b Mbps.
func FuzzServerSet(f *testing.F) {
	f.Add([]byte{5, 5, 5}, []byte{12, 20, 30, 5})
	f.Add([]byte{0x25, 0xc5, 5, 0x45}, []byte{40, 0x83, 60, 0x87, 0x87, 0, 127, 126, 10})
	f.Add([]byte{0}, []byte{100, 0x87, 0})
	f.Add([]byte{0xc1}, []byte{1, 0x87, 0x87, 3})
	f.Fuzz(func(t *testing.T, poolBytes, schedule []byte) {
		if len(poolBytes) > 8 {
			poolBytes = poolBytes[:8]
		}
		if len(schedule) > 64 {
			schedule = schedule[:64]
		}
		n := len(poolBytes)
		uplinks := make([]float64, n)
		pool := newScriptedPool(n)
		for i, b := range poolBytes {
			uplinks[i] = float64(b&0x1f) * 5
			pool.refuse[i] = b&0x20 != 0
			pool.silent[i] = []int{-1, 2, 6, 0}[b>>6]
		}
		set := newTestSet(uplinks, nil)
		target := 0.0
		everLive := make([]bool, n)
		for _, b := range schedule {
			var alive bool
			if b&0x80 != 0 {
				for range int(b&7) + 1 {
					alive = pool.fold(set)
				}
			} else {
				rate := 2 * float64(b)
				switch b {
				case 126:
					rate = -1
				case 127:
					rate = math.NaN()
				}
				err := set.SetTarget(rate, pool.io())
				if !(rate >= 0) {
					if err == nil {
						t.Fatalf("SetTarget(%g) accepted", rate)
					}
					continue
				}
				target = rate
				alive = err == nil
			}
			checkServerSet(t, set, pool, uplinks, target, alive, everLive)
		}
	})
}

// checkServerSet asserts the set's invariants after one call; alive is what
// the call reported (a nil SetTarget error, or Window's result).
func checkServerSet(t *testing.T, set *ServerSet, pool *scriptedPool, uplinks []float64, target float64, alive bool, everLive []bool) {
	t.Helper()
	var live int
	var sum, covered float64
	usedUp := true
	for i, srv := range set.servers() {
		if srv.state == serverIdle {
			usedUp = false
		}
		if everLive[i] && srv.state != serverOpen && srv.state != serverLost {
			t.Fatalf("server %d was live and is now %v", i, srv.state)
		}
		if !set.Live(i) {
			continue
		}
		everLive[i] = true
		live++
		share := pool.paced[i]
		if uplinks[i] > 0 && share > uplinks[i] {
			t.Fatalf("server %d share %g above its uplink %g", i, share, uplinks[i])
		}
		sum += share
		covered += uplinks[i]
		if uplinks[i] <= 0 {
			covered = math.Inf(1)
		}
	}
	for i, opens := 0, map[int]bool{}; i < len(pool.opens); i++ {
		if opens[pool.opens[i]] {
			t.Fatalf("server %d opened twice (opens %v)", pool.opens[i], pool.opens)
		}
		opens[pool.opens[i]] = true
	}
	if want := math.Min(target, covered); math.Abs(sum-want) > 1e-9*math.Max(1, want) {
		t.Fatalf("shares sum to %g, want min(target %g, open uplinks %g)", sum, target, covered)
	}
	if !usedUp && covered < target*uplinkHeadroom {
		t.Fatalf("open uplinks %g short of %g×%g with servers left", covered, uplinkHeadroom, target)
	}
	if exhausted := live == 0 && target > 0; alive == exhausted {
		t.Fatalf("call reported alive=%v with %d live servers at target %g", alive, live, target)
	}
	if set.ServersUsed()-set.ServersLost() != live {
		t.Fatalf("used %d − lost %d ≠ %d live", set.ServersUsed(), set.ServersLost(), live)
	}
}
