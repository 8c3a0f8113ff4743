package earlystop

import (
	_ "embed"
	"fmt"
)

// defaultModelJSON is the default model artifact, trained offline — rows from
// internal/exper's replay over the full RAN profile library, labeled against
// each link's oracle (its mean capacity over 10 s), fitted by Train:
//
//	go run ./cmd/swiftest earlystop train -seed 7 -runs 6 -tolerance 0.15 -threshold 0.80 -o internal/earlystop/default_model.json
//
// Training and encoding are deterministic: the command writes these bytes
// exactly, and scripts/earlystop_smoke.sh fails when it does not. Rerun it
// whenever the replay's links or labels move. The tolerance/threshold pair
// was chosen from an earlier paired front and is kept as is;
// internal/exper/testdata/earlystop_front.json holds today's.
//
//go:embed default_model.json
var defaultModelJSON []byte

// defaultModel is parsed once at package init: the artifact ships inside
// the binary, so failing to parse it is a build defect, not a runtime
// condition.
var defaultModel = func() *Model {
	m, err := Parse(defaultModelJSON)
	if err != nil {
		panic(fmt.Sprintf("earlystop: embedded default model: %v", err))
	}
	return m
}()

// Default returns the embedded default model. The returned model is shared
// and must be treated as read-only.
func Default() *Model {
	return defaultModel
}
