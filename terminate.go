package swiftest

import (
	"fmt"

	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/earlystop"
)

// TerminationPolicy decides, after every 50 ms sample, whether a bandwidth
// test has measured enough. Three implementations ship with the library:
// CrossingTermination (the paper's §5.1 stability window, the default),
// FastBTSTermination (FastBTS's crucial-interval agreement), and the
// learned EarlyStopTermination. Set one on SessionOptions.Terminate.
type TerminationPolicy = core.TerminationPolicy

// CrossingTermination is the paper's §5.1 stopping rule: stop when the last
// 10 samples agree within 3 %, reporting their mean.
type CrossingTermination = core.CrossingPolicy

// FastBTSTermination is FastBTS's crucial-interval stopping rule (NSDI '21)
// applied to the Swiftest engine's sample stream: the same rule, with the
// same published parameters, that the FastBTS baseline of the paper's
// Fig 23–25 runs.
type FastBTSTermination = core.FastBTSPolicy

// EarlyStopModel is a trained learned-termination model
// (swiftest-earlystop-model/v1). Obtain one from DefaultEarlyStopModel,
// ParseEarlyStopModel, or the `swiftest earlystop train` pipeline.
type EarlyStopModel = earlystop.Model

// EarlyStopTermination is the learned TURBOTEST-style policy over model;
// a nil model selects the embedded default. The §5.1 crossing rule remains
// its fallback, so it never stops later than the default policy.
func EarlyStopTermination(model *EarlyStopModel) TerminationPolicy {
	return earlystop.NewPolicy(model)
}

// DefaultEarlyStopModel returns the embedded default earlystop model,
// trained offline over the built-in RAN profile library. The returned
// model is shared and read-only.
func DefaultEarlyStopModel() *EarlyStopModel { return earlystop.Default() }

// ParseEarlyStopModel loads a model artifact produced by
// (*EarlyStopModel).Encode or `swiftest earlystop train`.
func ParseEarlyStopModel(data []byte) (*EarlyStopModel, error) { return earlystop.Parse(data) }

// ParseTerminationPolicy maps a policy name — "crossing", "fastbts",
// "earlystop" — to its default-parameterised implementation. The empty
// string selects nil (the engine's crossing default), so it can sit
// directly behind a CLI flag.
func ParseTerminationPolicy(name string) (TerminationPolicy, error) {
	switch name {
	case "":
		return nil, nil
	case "crossing":
		return CrossingTermination{}, nil
	case "fastbts":
		return FastBTSTermination{}, nil
	case "earlystop":
		return earlystop.NewPolicy(nil), nil
	default:
		return nil, fmt.Errorf("swiftest: unknown termination policy %q (known: crossing, fastbts, earlystop)", name)
	}
}
