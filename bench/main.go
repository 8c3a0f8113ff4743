// Command bench is the repository's performance ledger: five named
// workloads run against the public entry points, end-to-end metrics with
// tracing off and per-layer metrics in a separate traced run, all taken from
// outside the program. README.md in this directory says how to run it and
// what each row means; BENCHMARK.json at the repository root declares the
// rows and their regression bounds.
//
// All traffic crosses the host loopback, never a real link.
//
//lint:allow walltime the benchmark exists to read the wall clock around calls into the program
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// sizing is everything that scales a run. There are two: the size the
// ledger is kept at, and a smoke size that only proves the code runs.
type sizing struct {
	setupReps int // set-up is repeated and its median reported

	liveMax, liveWarm, liveStage time.Duration // MaxDuration of timed, warm-up and fill-in live tests
	liveTolerance                float64       // how far from the relay's rate an estimate may land before the test counts as failed

	rungScale       float64       // multiplies every rung's offered rate
	saturateWarm    time.Duration // length of the warm-up rung
	saturateStretch time.Duration // length of one top-rung stretch

	simBatch, simCheck, simFill int // tests per batch, in the set-up check, in the fill-in

	campaignProfiles                int // 0 = the whole library
	campaignRuns, campaignCheckRuns int // runs per cell

	fleetDay, fleetCheckDay time.Duration // virtual length of a timed day and of the set-up check
	fleetPeak               int           // peak concurrent tests

	layerTarget time.Duration // how long each stand-alone loop is timed
	batchBursts int           // 64-datagram bursts per batchio mode
}

var fullSize = sizing{
	setupReps: 3,
	liveMax:   3 * time.Second, liveWarm: 300 * time.Millisecond, liveStage: time.Second, liveTolerance: 0.25,
	rungScale: 1, saturateWarm: 250 * time.Millisecond, saturateStretch: 600 * time.Millisecond,
	simBatch: 20000, simCheck: 1000, simFill: 2000,
	campaignRuns: 16, campaignCheckRuns: 4,
	fleetDay: 30 * time.Second, fleetCheckDay: 5 * time.Second, fleetPeak: 5200,
	layerTarget: 5 * time.Millisecond, batchBursts: 300,
}

// smokeSize is for `go test`: every code path, no number worth keeping.
var smokeSize = sizing{
	setupReps: 1,
	// A quarter-second test is still ramping when it ends: any estimate passes.
	liveMax: 250 * time.Millisecond, liveWarm: 100 * time.Millisecond, liveStage: 150 * time.Millisecond, liveTolerance: 1,
	rungScale: 0.01, saturateWarm: 100 * time.Millisecond, saturateStretch: 100 * time.Millisecond,
	simBatch: 200, simCheck: 50, simFill: 50,
	campaignProfiles: 2, campaignRuns: 1, campaignCheckRuns: 1,
	fleetDay: 2 * time.Second, fleetCheckDay: time.Second, fleetPeak: 200,
	layerTarget: 100 * time.Microsecond, batchBursts: 4,
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	size     sizing
	workers  int
	out      io.Writer // human-readable lines
	spanDir  string    // where a traced run writes its spans; "" keeps them in memory only
}

func (c *runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// setupSeed seeds the inputs set-up alone uses (warm-ups, determinism
// checks), apart from every batch's.
func (c *runConfig) setupSeed() int64 { return ^c.seed }

// batchSeed is the input seed of batch b. A traced run pairs batches — 2k
// untraced, 2k+1 traced — on the same inputs.
func (c *runConfig) batchSeed(b int) int64 {
	if c.traced {
		b /= 2
	}
	return c.seed + int64(b)
}

// recorder is what a run has measured so far.
type recorder struct {
	attempted, failed int
	violations        []string

	opsPerS float64       // ops per wall second, median over untraced batches
	ops     float64       // ops in the region cpu covers
	cpu     time.Duration // process CPU, user+sys, over that region
	heldMB  float64       // memory held from the OS, median over untraced batches
	quality float64
	digest  string // of the results a fixed seed must reproduce; "" when they depend on the clock

	layer map[string]float64 // per-layer rows, traced runs only
	spans *spanLog           // nil when tracing is off
	out   io.Writer
}

func newRecorder(traced bool, out io.Writer) *recorder {
	r := &recorder{layer: map[string]float64{}, out: out}
	if traced {
		r.spans = newSpanLog()
	}
	return r
}

// fail counts one failed op; violate records a failed check that is not an
// op. Either makes the run incorrect.
func (r *recorder) fail(format string, args ...any) { r.failN(1, format, args...) }

func (r *recorder) failN(n int, format string, args ...any) {
	r.failed += n
	r.violate(format, args...)
}

func (r *recorder) violate(format string, args ...any) {
	const keep = 20
	if len(r.violations) < keep {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) note(format string, args ...any) {
	if r.out != nil {
		fmt.Fprintf(r.out, format+"\n", args...)
	}
}

// Process accounting, from getrusage.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return ru
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

func cpuTimes() (user, sys time.Duration) { ru := rusage(); return tv(ru.Utime), tv(ru.Stime) }
func cpuTime() time.Duration              { user, sys := cpuTimes(); return user + sys }
func peakRSSMB() float64                  { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// metricValue is one row of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run sets the workload up, measures it, and in a traced run follows with
// the layer suite. The error is a broken instrument; a wrong answer from the
// program comes back as result.Correct == false.
func run(ctx context.Context, cfg runConfig) (result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var setups []float64
	var inst instance
	for i := 0; i < cfg.size.setupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, fmt.Errorf("%s: closing set-up %d: %w", w.name, i, err)
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(ctx, &cfg); err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rec := newRecorder(cfg.traced, cfg.out)
	err := inst.measure(ctx, &cfg, rec)
	if cerr := inst.close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing: %w", cerr)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}

	res := result{Attempted: rec.attempted, Failed: rec.failed, Metrics: map[string]metricValue{}}
	if cfg.traced {
		if err := runLayerSuite(ctx, &cfg, rec); err != nil {
			return result{}, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := fillTimeRows(ctx, &cfg, rec); err != nil {
			return result{}, fmt.Errorf("%s: %w", w.name, err)
		}
		rec.layer["process.cpu_us_per_op"] = float64(rec.cpu) / float64(time.Microsecond) / rec.ops
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{rec.layer[m.name], m.unit}
		}
		if cfg.spanDir != "" {
			path := filepath.Join(cfg.spanDir, "spans-"+w.name+".jsonl")
			if err := rec.spans.write(path); err != nil {
				return result{}, err
			}
			rec.note("spans %d written to %s", len(rec.spans.spans), path)
		}
	} else {
		values := map[string]float64{
			"setup_s":     median(setups),
			"mem_held_mb": rec.heldMB,
			"ops_per_s":   rec.opsPerS,
			"quality_pct": rec.quality,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
		rec.note("detail setup_s %s", spread(setups))
		rec.note("detail peak_rss_mb %.4g (ru_maxrss; at heaps this small it follows the collector's timing, so it is shown and not gated)", peakRSSMB())
	}
	for _, v := range rec.violations {
		rec.note("violation %s", v)
	}
	res.Correct = rec.failed == 0 && len(rec.violations) == 0
	rec.note("workload %s seed=%d ops_attempted=%d ops_failed=%d digest=%s", w.name, cfg.seed, rec.attempted, rec.failed, orDash(rec.digest))
	return res, nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// printMetrics lists every row by name, value and unit, in ledger order.
func printMetrics(out io.Writer, res result, defs []metricDef) {
	for _, m := range defs {
		fmt.Fprintf(out, "metric %-42s %14.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
}

// environment labels the numbers: they are from this host's loopback, this
// many cores and this wire path, and compare only with their like.
func environment(workers int) (string, error) {
	path, err := wirePath()
	if err != nil {
		return "", err
	}
	var uts syscall.Utsname
	kernel := "unknown"
	if syscall.Uname(&uts) == nil {
		var b strings.Builder
		for _, c := range uts.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		kernel = b.String()
	}
	return fmt.Sprintf("env link=loopback nproc=%d gomaxprocs=%d workers=%d go=%s kernel=%s wire=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), workers, runtime.Version(), kernel, path), nil
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 12, "how long the timed region lasts")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, tracing on")
	spanDir := fs.String("spans", ".bench_build", "directory a traced run writes its spans to; empty keeps them in memory only")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: usage: bench -workload <name> [-seed n] [-seconds s] [-trace 0|1]")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = strings.Split(workloadNames(), ", ")
	}

	// The ledger is kept on two cores: one generator process, and never more
	// load-generating goroutines than cores.
	workers := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(workers)
	env, err := environment(workers)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, env)

	code := 0
	for _, n := range names {
		cfg := runConfig{
			workload: n, seed: *seed, seconds: *seconds, traced: *trace == 1,
			size: fullSize, workers: workers, out: stdout, spanDir: *spanDir,
		}
		res, err := run(context.Background(), cfg)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		defs := endToEnd
		if cfg.traced {
			defs = perLayer
		}
		printMetrics(stdout, res, defs)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
