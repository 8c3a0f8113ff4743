package deploy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// ArtifactSchema names the JSON layout emitted by `swiftest plan -json` and
// consumed by the fleet dispatcher (fleet.NewDispatcher) and the load
// generator: the planner's output becomes the control plane's input.
const ArtifactSchema = "swiftest-deploy-plan/v1"

// Artifact is a serialised deployment plan: the solved purchase plan plus
// its IXP-domain placement, with enough workload context to derive admission
// caps at dispatch time.
type Artifact struct {
	Schema     string      `json:"schema"`
	Workload   Workload    `json:"workload"`
	Plan       Plan        `json:"plan"`
	Placements []Placement `json:"placements"`
}

// NewArtifact bundles a workload, its solved plan, and the plan's placement
// into a serialisable artifact.
func NewArtifact(w Workload, plan Plan, placements []Placement) *Artifact {
	return &Artifact{Schema: ArtifactSchema, Workload: w, Plan: plan, Placements: placements}
}

// Validate checks the structural invariants a dispatcher depends on.
func (a *Artifact) Validate() error {
	if a == nil {
		return errors.New("deploy: nil artifact")
	}
	if a.Schema != ArtifactSchema {
		return fmt.Errorf("deploy: artifact schema %q, want %q", a.Schema, ArtifactSchema)
	}
	if a.Plan.Servers() == 0 {
		return errors.New("deploy: artifact plan has no servers")
	}
	var placed int
	for _, p := range a.Placements {
		if p.Domain == "" {
			return errors.New("deploy: placement with empty domain")
		}
		placed += len(p.Servers)
	}
	if len(a.Placements) > 0 && placed != a.Plan.Servers() {
		return fmt.Errorf("deploy: placements hold %d servers, plan purchases %d", placed, a.Plan.Servers())
	}
	return nil
}

// Encode emits the artifact as indented JSON.
func (a *Artifact) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// ParseArtifact decodes and validates an artifact. Unknown fields are
// rejected so schema drift surfaces loudly instead of as zero values.
func ParseArtifact(data []byte) (*Artifact, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var a Artifact
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("deploy: decoding artifact: %w", err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &a, nil
}

// LoadArtifact reads an artifact file written by `swiftest plan -json`.
func LoadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("deploy: reading artifact: %w", err)
	}
	return ParseArtifact(data)
}
