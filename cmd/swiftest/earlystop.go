package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	swiftest "github.com/mobilebandwidth/swiftest"
	"github.com/mobilebandwidth/swiftest/internal/earlystop"
	"github.com/mobilebandwidth/swiftest/internal/exper"
)

// parseTerminate maps the -terminate/-terminate-model flag pair to a
// termination policy. An empty name selects the engine's crossing default;
// a model path is only meaningful with -terminate earlystop.
func parseTerminate(name, modelPath string) (swiftest.TerminationPolicy, error) {
	if modelPath != "" && name != "earlystop" {
		return nil, fmt.Errorf("-terminate-model requires -terminate earlystop (got %q)", name)
	}
	if modelPath == "" {
		return swiftest.ParseTerminationPolicy(name)
	}
	data, err := os.ReadFile(modelPath)
	if err != nil {
		return nil, fmt.Errorf("reading earlystop model: %w", err)
	}
	model, err := swiftest.ParseEarlyStopModel(data)
	if err != nil {
		return nil, err
	}
	return swiftest.EarlyStopTermination(model), nil
}

// earlystopCmd dispatches the earlystop subcommands (currently: train).
func earlystopCmd(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf(`earlystop needs a subcommand: "swiftest earlystop train -h"`)
	}
	switch args[0] {
	case "train":
		return earlystopTrain(args[1:])
	default:
		return fmt.Errorf("unknown earlystop subcommand %q (known: train)", args[0])
	}
}

// earlystopTrain replays seeded campaign scenarios (RAN profiles × fault
// plans, scored against the capacity each link offered), labels every test
// prefix, fits a
// logistic-regression model, and writes the swiftest-earlystop-model/v1
// artifact. The whole pipeline is deterministic: the same flags reproduce
// the artifact byte-for-byte.
func earlystopTrain(args []string) error {
	fs := flag.NewFlagSet("earlystop train", flag.ExitOnError)
	profilesFlag := fs.String("profiles", "all", `comma-separated RAN profiles to replay, or "all"`)
	runs := fs.Int("runs", 3, "seeded runs per (profile, fault plan) cell")
	seed := fs.Int64("seed", 1, "replay seed; rows and model are a pure function of (flags, seed)")
	minSamples := fs.Int("k", 20, "K: the shortest prefix the model may stop at")
	step := fs.Int("step", 5, "stride between labeled prefixes of one run")
	tolerance := fs.Float64("tolerance", 0.10, "relative-error band labeling a prefix accurate")
	threshold := fs.Float64("threshold", 0.85, "stop-probability threshold stored in the model")
	iters := fs.Int("iters", 400, "gradient-descent iterations")
	out := fs.String("o", "earlystop_model.json", `model artifact output path ("-" for stdout)`)
	rowsOut := fs.String("rows", "", "also write the labeled feature rows as JSONL here (empty disables)")
	timeout := fs.Duration("timeout", 10*time.Minute, "replay deadline (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rcfg := exper.ReplayConfig{
		Runs:       *runs,
		Seed:       *seed,
		MinSamples: *minSamples,
		PrefixStep: *step,
		Tolerance:  *tolerance,
	}
	if *profilesFlag != "all" && *profilesFlag != "" {
		rcfg.Profiles = strings.Split(*profilesFlag, ",")
	}
	topts := earlystop.TrainOptions{Iterations: *iters, Threshold: *threshold}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	model, rows, err := exper.TrainFromReplay(ctx, rcfg, topts)
	if err != nil {
		return err
	}

	pos := 0
	for _, r := range rows {
		if r.Label {
			pos++
		}
	}
	fmt.Fprintf(os.Stderr, "trained on %d rows (%d positive) from %d runs/cell, seed %d\n",
		len(rows), pos, *runs, *seed)

	if *rowsOut != "" {
		if err := writeRows(*rowsOut, rows); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "rows written to %s\n", *rowsOut)
	}

	artifact, err := model.Encode()
	if err != nil {
		return err
	}
	if *out == "-" {
		_, err := os.Stdout.Write(artifact)
		return err
	}
	if err := os.WriteFile(*out, artifact, 0o644); err != nil {
		return fmt.Errorf("writing model artifact: %w", err)
	}
	fmt.Fprintf(os.Stderr, "model written to %s\n", *out)
	return nil
}

// writeRows dumps labeled training rows as JSONL, one row per line.
func writeRows(path string, rows []earlystop.Row) error {
	err := writeFile(path, func(f io.Writer) error {
		w := bufio.NewWriter(f)
		enc := json.NewEncoder(w)
		for _, r := range rows {
			if err := enc.Encode(r); err != nil {
				return err
			}
		}
		return w.Flush()
	})
	if err != nil {
		return fmt.Errorf("writing rows: %w", err)
	}
	return nil
}
