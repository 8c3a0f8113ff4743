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
// deterministic packages, so opting those packages out of walltime is a lint
// error in its own right. Wall-clock faces of the core (the dispatch verb's
// control plane, transport, command mains) live outside these packages
// precisely so they can carry the directive.
var VTCore = &Analyzer{
	Name: "vtcore",
	Doc: "flags //lint:allow walltime directives inside the deterministic " +
		"packages — they must stay wall-clock-free, not opted out",
	Run: runVTCore,
}

func init() { Register(VTCore) }

func runVTCore(pass *Pass) error {
	if !pathHasSuffix(pass.PkgPath, deterministicPackages) {
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
