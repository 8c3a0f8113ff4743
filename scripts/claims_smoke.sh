#!/usr/bin/env bash
# Paper-claims smoke: the CI gate for internal/claims and the block of
# EXPERIMENTS.md that `swiftest claims` generates from it.
#
#  1. `swiftest claims -seed 1` exits 0: every claim in the table holds.
#  2. Its stdout is byte-identical across two runs at the default worker
#     count and one at -workers 1.
#  3. `swiftest claims -seed 2` … `-seed 5` exit 0 as well; only their exit
#     status is checked.
#  4. The seed-1 stdout equals the block between the claims markers in
#     EXPERIMENTS.md. On a mismatch the script prints the diff and the one
#     command that regenerates the block.
#
# The committed block is checked on CI's amd64 runner: float fusion on other
# architectures may round a printed digit differently.
set -euo pipefail

BEGIN='<!-- claims:begin -->'
END='<!-- claims:end -->'
REGEN="go run ./cmd/swiftest claims -seed 1 | sed -i -e '/^$BEGIN\$/,/^$END\$/{//!d}' -e '/^$BEGIN\$/r /dev/stdin' EXPERIMENTS.md"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/swiftest" ./cmd/swiftest
for run in a b c; do
  flags=(-seed 1)
  [ "$run" = c ] && flags+=(-workers 1)
  "$WORK/swiftest" claims "${flags[@]}" > "$WORK/$run.md" 2> "$WORK/$run.err" || {
    echo "swiftest claims ${flags[*]} failed: a paper claim no longer holds" >&2
    cat "$WORK/$run.err" >&2
    grep '✗' "$WORK/$run.md" >&2 || true
    exit 1
  }
done
for run in b c; do
  cmp "$WORK/a.md" "$WORK/$run.md" || {
    echo "swiftest claims -seed 1 output differs across reruns or worker counts:" >&2
    diff -u "$WORK/a.md" "$WORK/$run.md" >&2 || true
    exit 1
  }
done
for seed in 2 3 4 5; do
  "$WORK/swiftest" claims -seed "$seed" > "$WORK/seed$seed.md" 2> "$WORK/seed$seed.err" || {
    echo "swiftest claims -seed $seed failed: a paper claim does not hold at this seed" >&2
    cat "$WORK/seed$seed.err" >&2
    grep '✗' "$WORK/seed$seed.md" >&2 || true
    exit 1
  }
done
echo "claims gate passed: every row holds at seeds 1-5, output identical across reruns and -workers"

sed -n "/^$BEGIN\$/,/^$END\$/{//!p}" EXPERIMENTS.md > "$WORK/committed.md"
diff -u "$WORK/committed.md" "$WORK/a.md" || {
  echo "EXPERIMENTS.md's claims block differs from swiftest claims -seed 1; regenerate it with:" >&2
  echo "  $REGEN" >&2
  exit 1
}
echo "claims smoke passed: EXPERIMENTS.md carries the current table"
