#!/usr/bin/env bash
# Paired no-regression gate over the ledger: the protocol every performance
# PR ran by hand. A manual tool, not a CI step (five workloads take ~40 min).
#
#   scripts/perf_gate.sh [--moved workload,...] <parent-ref> [workload...]
#
# Unpacks <parent-ref> into a temporary directory, then for each workload of
# BENCHMARK.json (or those named) runs its `command` at `run_seconds` for ten
# parent/change pairs — pair i at seed i, sides alternating which goes first,
# the change being this working tree — and prints per end-to-end metric both
# medians, how far the change's is worse, the bound, the parent's quartile
# spread and the pairs the change won, then the failed operations and the
# result digests. Exits 1 when a median is worse than its bound, a digest
# differs between the sides, or the share of failed operations rose.
#
# --moved declares the workloads whose digests the change moves on purpose
# (a new noise stream, a new seed key). Their digest line reads
# `MOVED (declared)` instead of `DIFFER`, and the gate then fails if one of
# their digests did not move: a declared move must happen at every seed.
# An undeclared workload still fails on any digest that differs.
#
# Then four `--trace 1` runs per side (seeds 1–4, sides alternating which
# goes first) say where the time went: each side's median of every per-layer
# row whose two sides' ranges do not overlap (marked `moved`), and always the
# live-test rows (converged share, data per test, the four stage medians)
# when the workload fills them. Those rows inform; they do not gate. A row
# that did not move has disjoint ranges, and is marked `moved`, with
# probability 2·4!·4!/8! = 1/35 (1/10 with three runs a side); the fourth
# run costs two more traced runs per workload.
set -euo pipefail

USAGE="usage: scripts/perf_gate.sh [--moved workload,...] <parent-ref> [workload...]"
declared=""
if [ "${1:-}" = "--moved" ]; then
  [ $# -ge 2 ] || { echo "$USAGE" >&2; exit 2; }
  declared="$2"
  shift 2
fi
[ $# -ge 1 ] || { echo "$USAGE" >&2; exit 2; }
cd "$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
parent="$(git rev-parse --verify "$1^{commit}")"
shift

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
# An unpacked tree, not `git worktree`: nothing to unregister if the run is killed.
git archive "$parent" | tar -x -C "$WORK"

python3 - "$parent" "$WORK" "$declared" "$@" <<'EOF'
import json
import statistics
import subprocess
import sys

PAIRS = 10
TRACED = 4
LIVE_ROWS = {"core.live_converged_share", "swiftest.live_data_mb_p50", "transport.select_ms_p50",
             "transport.handshake_ms_p50", "transport.first_sample_ms_p50", "transport.report_ms_p50"}
parent_sha, parent_dir, names = sys.argv[1], sys.argv[2], sys.argv[4:]
declared = [n for n in sys.argv[3].split(",") if n]
with open("BENCHMARK.json") as f:
    bench = json.load(f)
known = [w["name"] for w in bench["workloads"]]
if unknown := [n for n in names + declared if n not in known]:
    sys.exit(f"unknown workload {unknown}; BENCHMARK.json has {known}")
dirs = {"parent": parent_dir, "change": "."}


def run(side, workload, seed, trace=0):
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=dirs[side], stdout=subprocess.PIPE, text=True).stdout
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"{side}: {' '.join(argv)} printed no result\n{out}")
    digest = next((word.split("=", 1)[1] for line in lines if line.startswith("workload ")
                   for word in line.split() if word.startswith("digest=")), "-")
    return result, digest


def worse_by(first, second, better):
    change = (second - first) / first if first else 0.0
    return change if better == "lower" else -change


print(f"parent {parent_sha[:12]} vs working tree: {PAIRS} alternating pairs per workload, "
      f"{bench['run_seconds']} s runs, pair i at seed i"
      + (f"; digests declared to move: {', '.join(declared)}" if declared else ""))
ok = True
for name in names or known:
    runs = {"parent": [], "change": []}
    for seed in range(1, PAIRS + 1):
        for side in ("parent", "change") if seed % 2 else ("change", "parent"):
            runs[side].append(run(side, name, seed))
    print(f"\n{name}")
    print(f"  {'metric':<12} {'parent med':>12} {'change med':>12} {'worse by':>9} {'bound':>6} {'parent IQR':>11} {'wins':>6}")
    for m in bench["end_to_end"]:
        p, c = ([r["metrics"][m["name"]]["value"] for r, _ in runs[side]] for side in ("parent", "change"))
        p_med, c_med = statistics.median(p), statistics.median(c)
        q1, _, q3 = statistics.quantiles(p, n=4)
        worse = worse_by(p_med, c_med, m["better"])
        wins = sum(worse_by(a, b, m["better"]) < 0 for a, b in zip(p, c))
        verdict = ""
        if worse > m["bound"]:
            verdict, ok = "  WORSE THAN THE BOUND", False
        elif p_med and (q3 - q1) / p_med > m["bound"]:
            verdict = "  unresolved: parent spread exceeds the bound"
        print(f"  {m['name']:<12} {p_med:>12.6g} {c_med:>12.6g} {100 * worse:>+8.2f}% {100 * m['bound']:>5.0f}% "
              f"{q3 - q1:>11.4g} {wins:>3}/{PAIRS}{verdict}")
    failed = {side: sum(r["failed"] for r, _ in rs) for side, rs in runs.items()}
    attempted = {side: sum(r["attempted"] for r, _ in rs) for side, rs in runs.items()}
    rose = failed["change"] * attempted["parent"] > failed["parent"] * attempted["change"]
    print(f"  ops_failed   parent {failed['parent']}/{attempted['parent']}  change {failed['change']}/{attempted['change']}"
          + ("  ROSE" if rose else ""))
    pairs = [(p[1], c[1]) for p, c in zip(runs["parent"], runs["change"])]
    digests = "  digests      " + " ".join(c for _, c in pairs)
    if name in declared:
        bad = [f"seed {i + 1}" for i, (p, c) in enumerate(pairs) if p == c]
        print("  parent       " + " ".join(p for p, _ in pairs))
        print(digests + (f"  DID NOT MOVE (declared to) at {', '.join(bad)}" if bad else "  MOVED (declared)"))
    else:
        bad = [f"seed {i + 1}: {p} != {c}" for i, (p, c) in enumerate(pairs) if p != c]
        print(digests + ("  DIFFER " + "; ".join(bad) if bad else "  (equal on both sides)"))
    ok = ok and not rose and not bad
    traced = {"parent": [], "change": []}
    for seed in range(1, TRACED + 1):
        for side in ("parent", "change") if seed % 2 else ("change", "parent"):
            traced[side].append(run(side, name, seed, trace=1)[0]["metrics"])
    print(f"  {f'per-layer (median of {TRACED} traced runs a side)':<40} {'parent':>12} {'change':>12} {'by':>8}")
    for row in bench["per_layer"]:
        p, c = ([m.get(row["name"], {}).get("value", 0.0) for m in traced[side]] for side in ("parent", "change"))
        p_med, c_med = statistics.median(p), statistics.median(c)
        moved = max(c) < min(p) or max(p) < min(c)
        if any(p + c) and (moved or row["name"] in LIVE_ROWS):
            by = f"{100 * (c_med - p_med) / p_med:>+7.1f}%" if p_med else f"{'new':>8}"
            print(f"  {row['name']:<40} {p_med:>12.6g} {c_med:>12.6g} {by}  {row['unit']}" + ("  moved" if moved else ""))
sys.exit(0 if ok else 1)
EOF
