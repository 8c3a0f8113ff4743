package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// The layer suite: timed calls straight into each layer's exported
// functions, the same on every workload. It runs after the workload in a
// traced run and fills the stand-alone rows of the ledger.

// perOp times loop(n) at growing n until one call lasts target, then takes
// the median of three more calls at that n. It returns nanoseconds per
// operation.
func perOp(target time.Duration, loop func(n int) error) (float64, error) {
	n := 1
	for {
		t0 := time.Now()
		if err := loop(n); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		if d >= target || n >= 1<<30 {
			break
		}
		// Aim past the target, as testing.B does, growing at most 100x a step.
		grow := 100.0
		if d > 0 {
			grow = min(grow, 1.5*float64(target)/float64(d))
		}
		n = max(n+1, int(float64(n)*grow))
	}
	var per []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := loop(n); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per), nil
}

// allocsPerOp counts heap allocations of loop(n) per operation.
func allocsPerOp(n int, loop func(n int) error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := loop(n); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

func noErr(loop func(n int)) func(n int) error {
	return func(n int) error { loop(n); return nil }
}

type layerRow struct {
	name string
	unit time.Duration // the row's unit of time
	loop func(n int) error
}

func runLayerSuite(ctx context.Context, cfg *runConfig, rec *recorder) error {
	traj, err := recordTrajectory(cfg.seed, 90)
	if err != nil {
		return err
	}
	plan, err := planFleet()
	if err != nil {
		return err
	}
	rows := []layerRow{
		{"wire.data_encode_ns", time.Nanosecond, noErr(wireDataEncode)},
		{"wire.data_decode_ns", time.Nanosecond, wireDataDecode},
		{"wire.control_roundtrip_ns", time.Nanosecond, wireControlRoundtrip},
		{"wire.token_verify_ns", time.Nanosecond, wireTokenVerify},
		{"estimate.compute_ns.n20", time.Nanosecond, noErr(func(n int) { estimateComputeLoop(traj, 20, n) })},
		{"estimate.compute_ns.n90", time.Nanosecond, noErr(func(n int) { estimateComputeLoop(traj, 90, n) })},
		{"estimate.classify_bdp_ns.n20", time.Nanosecond, noErr(func(n int) { estimateClassifyLoop(traj, 20, n) })},
		{"estimate.classify_bdp_ns.n90", time.Nanosecond, noErr(func(n int) { estimateClassifyLoop(traj, 90, n) })},
		{"earlystop.featurize_ns", time.Nanosecond, noErr(func(n int) { earlystopFeaturizeLoop(traj, n) })},
		{"earlystop.predict_ns", time.Nanosecond, noErr(func(n int) { earlystopPredictLoop(traj, n) })},
		{"linksim.advance_ns_per_tick.static", time.Nanosecond, func(n int) error { return advanceLoop(cfg.seed, false, n) }},
		{"linksim.advance_ns_per_tick.hooked", time.Nanosecond, func(n int) error { return advanceLoop(cfg.seed, true, n) }},
		{"ranprofile.at_ns", time.Nanosecond, func(n int) error { return hookLoop(cfg.seed, n) }},
		{"baseline.btsapp_ms_per_run", time.Millisecond, func(n int) error { return baselineLoop("btsapp", cfg.seed, n) }},
		{"baseline.fast_ms_per_run", time.Millisecond, func(n int) error { return baselineLoop("fast", cfg.seed, n) }},
		{"baseline.fastbts_ms_per_run", time.Millisecond, func(n int) error { return baselineLoop("fastbts", cfg.seed, n) }},
		{"fleet.dispatch_ns_per_op", time.Nanosecond, func(n int) error { return plan.dispatchLoop(cfg.seed, n) }},
	}
	// One test's worth of policy decisions, at the length a converging test
	// has (20 samples) and the length a test that rides to the cap has (90):
	// a ratio above 4.5 between the two is super-linear work.
	for _, policy := range []string{"crossing", "fastbts", "earlystop"} {
		for _, n := range []int{20, 90} {
			rows = append(rows, layerRow{
				fmt.Sprintf("core.decide_us_per_test.%s.n%d", policy, n), time.Microsecond,
				func(reps int) error { return decideLoop(policy, traj, n, reps) },
			})
		}
	}
	for _, row := range rows {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("layer suite: %w", err)
		}
		ns, err := perOp(cfg.size.layerTarget, row.loop)
		if err != nil {
			return fmt.Errorf("layer suite: %s: %w", row.name, err)
		}
		rec.layer[row.name] = ns / float64(row.unit)
	}

	if rec.layer["wire.allocs_per_op"], err = allocsPerOp(1000, wireControlRoundtrip); err != nil {
		return err
	}
	if rec.layer["fleet.dispatch_allocs_per_op"], err = allocsPerOp(1000, func(n int) error { return plan.dispatchLoop(cfg.seed, n) }); err != nil {
		return err
	}
	if err := batchRows(cfg, rec); err != nil {
		return err
	}

	var planMs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := planFleet(); err != nil {
			return err
		}
		planMs = append(planMs, float64(time.Since(t0))/float64(time.Millisecond))
	}
	rec.layer["deploy.plan_ms"] = median(planMs)

	// Workers against one worker, on a quarter-size campaign.
	profiles := profileNames()
	var wall [2]time.Duration
	for i, workers := range []int{1, cfg.workers} {
		t0 := time.Now()
		if _, _, err := runCampaign(ctx, profiles, max(1, cfg.size.campaignRuns/4), cfg.seed, workers, nil); err != nil {
			return err
		}
		wall[i] = time.Since(t0)
	}
	rec.layer["exper.speedup_workers"] = wall[0].Seconds() / wall[1].Seconds()
	return nil
}

// batchRows times bursts of 1200-byte datagrams between two loopback
// sockets through batchio, on the platform's path and the portable one.
func batchRows(cfg *runConfig, rec *recorder) error {
	for _, mode := range []struct {
		name     string
		fallback bool
	}{{"auto", false}, {"fallback", true}} {
		pair, err := newBatchPair(mode.fallback)
		if err != nil {
			return err
		}
		var send, recv time.Duration
		var sent, got int
		var mallocs uint64
		var before, after runtime.MemStats
		for b := 0; b < cfg.size.batchBursts; b++ {
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			n, err := pair.send()
			t1 := time.Now()
			runtime.ReadMemStats(&after)
			if err != nil {
				pair.close()
				return err
			}
			g, err := pair.drain(n)
			t2 := time.Now()
			if err != nil {
				pair.close()
				return err
			}
			send += t1.Sub(t0)
			recv += t2.Sub(t1)
			sent += n
			got += g
			mallocs += after.Mallocs - before.Mallocs
		}
		if err := pair.close(); err != nil {
			return fmt.Errorf("batch pair: %w", err)
		}
		rec.layer["batchio.send_ns_per_datagram."+mode.name] = float64(send) / float64(sent)
		if !mode.fallback {
			rec.layer["batchio.recv_ns_per_datagram"] = float64(recv) / float64(got)
			rec.layer["batchio.send_allocs_per_datagram"] = float64(mallocs) / float64(sent)
		}
	}
	return nil
}

// fillTimeRows measures, on a small scale, the rows in a unit of time that
// only one workload produces (and the counts taken with them), when that
// workload is not the one running: every traced run then carries the whole
// stage budget of a live test and the engine's self time, whichever workload
// is being studied.
func fillTimeRows(ctx context.Context, cfg *runConfig, rec *recorder) error {
	if _, ok := rec.layer["transport.select_ms_p50"]; !ok {
		rig, err := newLiveRig(cfg.seed)
		if err != nil {
			return err
		}
		defer rig.close()
		var staged []stagedResult
		for i := 0; i < 2; i++ {
			st, err := rig.stagedTest(ctx, nonZero(cfg.seed+int64(i)), cfg.size.liveStage, nil, nil)
			if err != nil {
				return fmt.Errorf("stage fill-in: %w", err)
			}
			staged = append(staged, st)
		}
		stageRows(staged, rec)
	}
	if _, ok := rec.layer["core.engine_self_us_per_test"]; !ok {
		s := &simInstance{}
		var err error
		if s.rig, err = newSimRig(); err != nil {
			return err
		}
		in, err := s.rig.draw(cfg.seed, cfg.size.simFill)
		if err != nil {
			return err
		}
		tot, err := s.runBatch(ctx, in, true, nil)
		if err != nil {
			return fmt.Errorf("sim fill-in: %w", err)
		}
		simRows(tot, rec)
	}
	return nil
}
