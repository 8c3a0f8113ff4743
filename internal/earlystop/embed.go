package earlystop

import (
	_ "embed"
	"fmt"
)

// defaultModelJSON is the default model artifact, trained offline — rows from
// internal/exper's replay over the full RAN profile library, fitted by Train:
//
//	go run ./cmd/swiftest earlystop train -seed 7 -runs 6 -tolerance 0.15 -threshold 0.80 -o internal/earlystop/default_model.json
//
// Training and encoding are deterministic: the command writes the same bytes
// on every run. It no longer writes these bytes, though — the replay it
// trains on draws its links from linksim seeds, and this file dates from
// when those seeds named math/rand streams; today the command yields a
// sibling (same row count, weights shifted by the different noise). The
// tolerance/threshold pair was chosen
// from the paired front (internal/exper/testdata/earlystop_front.json): at 0.80 this
// model matches the crossing policy's mean accuracy at seed 1 while cutting
// mean duration and bytes on wire by ~60%; over seeds 1–5 its accuracy edge
// holds at two.
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
