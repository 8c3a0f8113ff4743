#!/usr/bin/env python3
"""Runs the ledger the way its gate does and records what it saw.

For each set, every workload is run with tracing off once per seed, then
once traced. Per end-to-end metric the script reports the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread — the distance
between the quartiles as a share of the median — next to the bound
BENCHMARK.json fixes, and between sets how far the second median is worse
than the first. Run it from the repository root:

    python3 bench/baseline.py --sets 2 --out bench/baseline/BASELINE.json

It compares a commit with itself only; it claims nothing about any other.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)}: exit {proc.returncode}\n{proc.stdout}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(argv)}: incorrect result\n{proc.stdout}")
    digest = next((word.split("=", 1)[1] for line in lines if line.startswith("workload ")
                   for word in line.split() if word.startswith("digest=")), "-")
    env = next((line for line in lines if line.startswith("env ")), "")
    return result, digest, wall, env


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": med, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def worse_by(first, second, better):
    """Share of the first median by which the second is worse (negative: better)."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10, help="seeds per workload and set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated subset; default all")
    ap.add_argument("--out", default="", help="write the record here as JSON")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    command, seconds = bench["command"], bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    e2e = {m["name"]: m for m in bench["end_to_end"]}

    record = {"command": command, "run_seconds": seconds, "runs_per_set": args.runs, "sets": []}
    for s in range(args.sets):
        set_record = {"workloads": {}}
        for name in names:
            values = {m: [] for m in e2e}
            digests, walls = {}, []
            for i in range(args.runs):
                seed = args.first_seed + i
                result, digest, wall, record["env"] = run_once(command, name, seed, seconds, 0)
                for m in e2e:
                    values[m].append(result["metrics"][m]["value"])
                digests[str(seed)] = digest
                walls.append(wall)
            traced, traced_digest, wall, _ = run_once(command, name, args.first_seed, seconds, 1)
            walls.append(wall)
            if traced_digest != digests[str(args.first_seed)]:
                sys.exit(f"{name}: traced digest {traced_digest} != untraced {digests[str(args.first_seed)]}")
            set_record["workloads"][name] = {
                "end_to_end": {m: dict(summarise(v), unit=e2e[m]["unit"], bound=e2e[m]["bound"]) for m, v in values.items()},
                "per_layer": traced["metrics"],
                "digests": digests,
                "slowest_run_s": max(walls),
            }
            print(f"set {s + 1} {name}: slowest run {max(walls):.1f}s", flush=True)
            for m, v in values.items():
                sm = summarise(v)
                flag = "" if m == "setup_s" or sm["spread"] <= e2e[m]["bound"] / 3 else "  <-- above a third of the bound"
                print(f"  {m:<14} median {sm['median']:<12.6g} q1 {sm['q1']:<12.6g} q3 {sm['q3']:<12.6g} "
                      f"spread {100 * sm['spread']:.2f}% (bound {100 * e2e[m]['bound']:.0f}%){flag}", flush=True)
        record["sets"].append(set_record)

    ok = True
    for name in names:
        first = record["sets"][0]["workloads"][name]
        for other in record["sets"][1:]:
            second = other["workloads"][name]
            if first["digests"] != second["digests"]:
                print(f"{name}: digests differ between sets")
                ok = False
            for m, spec in e2e.items():
                w = worse_by(first["end_to_end"][m]["median"], second["end_to_end"][m]["median"], spec["better"])
                verdict = "ok" if w <= spec["bound"] else "WORSE THAN THE BOUND"
                ok = ok and w <= spec["bound"]
                print(f"{name} {m}: second median worse by {100 * w:+.2f}% (bound {100 * spec['bound']:.0f}%) {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
