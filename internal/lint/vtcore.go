package lint

import (
	"strings"
)

// VTCore pins the virtual-time core closed. The walltime analyzer covers
// every package but honours //lint:allow walltime opt-outs, and a
// package-level opt-out silently exempts all future code in that package —
// which is exactly the failure mode the simulation substrate cannot afford:
// one convenience directive in linksim or fleet and determinism erodes with
// nobody noticing. VTCore therefore flags the *directive itself* inside the
// pinned core packages, so opting those packages out of walltime is a lint
// error in its own right. Wall-clock faces of the core (the live
// FleetDispatcher wrapper, transport, command mains) live outside these
// packages precisely so they can carry the directive.
var VTCore = &Analyzer{
	Name: "vtcore",
	Doc: "flags //lint:allow walltime directives inside the pinned " +
		"virtual-time core packages (linksim, gmm, deploy, faults, fleet, " +
		"loadgen) — the core must stay wall-clock-free, not opted out",
	Run: runVTCore,
}

func init() { Register(VTCore) }

// vtCorePackageSuffixes is the pinned set: packages whose determinism the
// experiments rest on. Matching by suffix keeps the analyzer independent of
// the module path.
var vtCorePackageSuffixes = []string{
	"internal/linksim",
	"internal/gmm",
	"internal/deploy",
	"internal/faults",
	"internal/fleet",
	"internal/loadgen",
	"internal/ranprofile",
	"internal/earlystop",
	"internal/exper",
	"internal/claims",
}

func runVTCore(pass *Pass) error {
	if !pathHasSuffix(pass.PkgPath, vtCorePackageSuffixes) {
		return nil
	}
	for _, file := range pass.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				if !strings.HasPrefix(c.Text, "//lint:allow") {
					continue
				}
				text := c.Text
				if i := strings.Index(text[2:], "//"); i >= 0 {
					text = strings.TrimSpace(text[:i+2])
				}
				fields := strings.Fields(strings.TrimPrefix(text, "//lint:allow"))
				if len(fields) == 0 {
					continue // malformed; the directive indexer reports it
				}
				for _, name := range strings.Split(fields[0], ",") {
					if strings.TrimSpace(name) == "walltime" {
						pass.Reportf(c.Pos(),
							"//lint:allow walltime inside virtual-time core package %s — the core must not opt out of the wall-clock ban; put the wall-clock face outside the pinned packages",
							pass.PkgPath)
					}
				}
			}
		}
	}
	return nil
}
