#!/usr/bin/env bash
# Scenario campaign smoke: the RAN profile sweep must cover the whole
# embedded library against multiple algorithms and fault plans, the
# swiftest-campaign-report/v2 JSON must be byte-identical across reruns and
# worker counts, and every cell of a profile must share one oracle.
set -euo pipefail

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# --- Leg 1: CLI determinism --------------------------------------------------
# The same (config, seed) must produce byte-identical reports regardless of
# worker count — the whole point of the fixed cell list + seeds that are pure
# functions of (seed, profile, run).
go build -o "$WORK/swiftest" ./cmd/swiftest

"$WORK/swiftest" campaign -runs 1 -seed 42 -workers 1 -json "$WORK/w1.json" \
  > "$WORK/table.txt"
"$WORK/swiftest" campaign -runs 1 -seed 42 -workers 8 -json "$WORK/w8.json" \
  > /dev/null
"$WORK/swiftest" campaign -runs 1 -seed 42 -workers 8 -json "$WORK/w8b.json" \
  > /dev/null

cmp "$WORK/w1.json" "$WORK/w8.json" || {
  echo "campaign report differs between -workers 1 and -workers 8" >&2
  exit 1
}
cmp "$WORK/w8.json" "$WORK/w8b.json" || {
  echo "campaign report differs across reruns at the same worker count" >&2
  exit 1
}

grep -q '"schema": "swiftest-campaign-report/v2"' "$WORK/w1.json" || {
  echo "campaign JSON is missing the swiftest-campaign-report/v2 schema tag" >&2
  exit 1
}
grep -q 'PROFILE' "$WORK/table.txt" || {
  echo "campaign table output is missing its header" >&2
  exit 1
}

# The default sweep is the whole library: count the entries of the report's
# top-level profiles / algorithms / fault_plans arrays.
count() {
  awk -v open="  \"$1\": [" '$0 == open { inside = 1; next }
    inside && /^  \]/ { exit } inside { n++ } END { print n + 0 }' "$WORK/w1.json"
}
profiles="$(count profiles)"
algs="$(count algorithms)"
plans="$(count fault_plans)"
if [ "$profiles" -lt 8 ] || [ "$algs" -lt 2 ] || [ "$plans" -lt 2 ]; then
  echo "campaign sweep too small: $profiles profiles x $algs algs x $plans fault plans, want >=8 x >=2 x >=2" >&2
  exit 1
fi
echo "campaign sweep: $profiles profiles x $algs algs x $plans fault plans"

# A different seed must actually change the report — determinism, not a
# constant function.
"$WORK/swiftest" campaign -runs 1 -seed 43 -workers 8 -json "$WORK/seed43.json" \
  > /dev/null
if cmp -s "$WORK/w8.json" "$WORK/seed43.json"; then
  echo "campaign report is identical across different seeds — seeding is dead" >&2
  exit 1
fi

# --- Leg 2: pairing ----------------------------------------------------------
# Runs are seeded by (seed, profile, run) alone, so every algorithm and fault
# plan of a profile is scored against the same oracle: the report must hold
# exactly one distinct mean_oracle_mbps per profile.
nprofiles="$(grep -o '"profile": "[^"]*"' "$WORK/w1.json" | sort -u | wc -l)"
noracles="$(awk '/"profile":/ { p = $2 } /"mean_oracle_mbps":/ { print p, $2 }' "$WORK/w1.json" | sort -u | wc -l)"
if [ "$nprofiles" -lt 8 ] || [ "$noracles" -ne "$nprofiles" ]; then
  echo "campaign cells are unpaired: $noracles distinct (profile, mean_oracle_mbps) pairs over $nprofiles profiles" >&2
  exit 1
fi

echo "campaign smoke passed: full-library sweep, byte-identical across workers and reruns, seed-sensitive, one oracle per profile"
