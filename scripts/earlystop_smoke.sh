#!/usr/bin/env bash
# Learned early-termination smoke: the CI gate for internal/earlystop and the
# replay and paired evaluation built on it in internal/exper.
#
#  1. Training is deterministic — the same flags produce a byte-identical
#     swiftest-earlystop-model/v1 artifact across reruns, and the command
#     internal/earlystop/embed.go documents writes the embedded
#     default_model.json byte for byte — and a threshold outside (0,1) exits
#     non-zero without writing an artifact.
#  2. `-terminate earlystop` drives the emulated substrate: on a churning
#     profile the model fires before the crossing rule (an early_stop trace
#     event with note "model"), and the whole run-record is byte-identical
#     across reruns — the policy does not leak nondeterminism into the core.
#  3. The same flag drives the live loopback substrate end to end, with both
#     the embedded default model and a freshly trained artifact.
#
# The paired front (crossing vs the learned policy on identical seeded links)
# is pinned bit for bit, model firings included, by internal/exper's
# TestEvaluateMatchesCommittedFront against testdata/earlystop_front.json.
set -euo pipefail

WORK="$(mktemp -d)"
trap 'kill ${PIDS:-} 2>/dev/null || true; rm -rf "$WORK"' EXIT
PIDS=

go build -o "$WORK/swiftest" ./cmd/swiftest

# --- Leg 1: deterministic training -------------------------------------------
TRAIN_FLAGS=(-profiles 4g-static,wifi-cafe -runs 1 -seed 3 -step 10 -iters 100)
"$WORK/swiftest" earlystop train "${TRAIN_FLAGS[@]}" -o "$WORK/tiny_a.json" \
  2> "$WORK/train.log"
"$WORK/swiftest" earlystop train "${TRAIN_FLAGS[@]}" -o "$WORK/tiny_b.json" \
  2> /dev/null

cmp "$WORK/tiny_a.json" "$WORK/tiny_b.json" || {
  echo "earlystop training is not deterministic: artifacts differ across reruns" >&2
  exit 1
}
# The shipped model is the exact output of its documented command.
"$WORK/swiftest" earlystop train -seed 7 -runs 6 -tolerance 0.15 -threshold 0.80 \
  -o "$WORK/default_model.json" 2> /dev/null
cmp "$WORK/default_model.json" internal/earlystop/default_model.json || {
  echo "internal/earlystop/default_model.json is not what its command in embed.go writes;" >&2
  echo "rerun: go run ./cmd/swiftest earlystop train -seed 7 -runs 6 -tolerance 0.15 -threshold 0.80 -o internal/earlystop/default_model.json" >&2
  exit 1
}
grep -q '"schema": "swiftest-earlystop-model/v1"' "$WORK/tiny_a.json" || {
  echo "trained artifact is missing the swiftest-earlystop-model/v1 schema tag" >&2
  exit 1
}
grep -q 'trained on [1-9][0-9]* rows' "$WORK/train.log" || {
  echo "training produced no rows:" >&2
  cat "$WORK/train.log" >&2
  exit 1
}
# A threshold the artifact cannot carry (Parse refuses it) is refused before
# the replay runs, and no artifact is written.
if "$WORK/swiftest" earlystop train "${TRAIN_FLAGS[@]}" -threshold 1.5 \
  -o "$WORK/bad.json" 2> "$WORK/bad.log"; then
  echo "earlystop train accepted -threshold 1.5" >&2
  exit 1
fi
[ ! -e "$WORK/bad.json" ] || {
  echo "earlystop train wrote an artifact for -threshold 1.5" >&2
  exit 1
}
grep -q 'outside (0,1)' "$WORK/bad.log" || {
  echo "earlystop train -threshold 1.5 failed for another reason:" >&2
  cat "$WORK/bad.log" >&2
  exit 1
}
echo "earlystop training gate passed: byte-identical artifact, shipped model reproduced, bad threshold refused"

# --- Leg 2: emulated substrate -----------------------------------------------
# A churning 4G drive profile: the embedded default model must stop the test
# before the crossing rule would (early_stop event, note "model"), and the
# run-record must be byte-identical across reruns.
SIM_FLAGS=(simulate -profile 4g-drive -seed 5 -terminate earlystop)
"$WORK/swiftest" "${SIM_FLAGS[@]}" -trace "$WORK/sim_a.jsonl" > "$WORK/sim.txt"
"$WORK/swiftest" "${SIM_FLAGS[@]}" -trace "$WORK/sim_b.jsonl" > /dev/null

cmp "$WORK/sim_a.jsonl" "$WORK/sim_b.jsonl" || {
  echo "emulated -terminate earlystop run-record differs across reruns" >&2
  exit 1
}
grep -q '"kind":"early_stop"' "$WORK/sim_a.jsonl" || {
  echo "no early_stop trace event on 4g-drive — the model never fired:" >&2
  cat "$WORK/sim.txt" >&2
  exit 1
}
grep '"kind":"early_stop"' "$WORK/sim_a.jsonl" | grep -q '"note":"model"' || {
  echo "early_stop event was not attributed to the model:" >&2
  grep '"kind":"early_stop"' "$WORK/sim_a.jsonl" >&2
  exit 1
}
# The custom artifact path must work on the emulated substrate too.
"$WORK/swiftest" simulate -profile wifi-cafe -seed 2 \
  -terminate earlystop -terminate-model "$WORK/tiny_a.json" > /dev/null
echo "earlystop emulated gate passed: deterministic run-record, model early stop"

# --- Leg 3: live loopback substrate ------------------------------------------
"$WORK/swiftest" serve -addr 127.0.0.1:0 -uplink 50 > "$WORK/serve.log" 2>&1 &
PIDS="$PIDS $!"
ADDR=
for i in $(seq 1 50); do
  ADDR="$(sed -n 's/^swiftest server listening on \([^ ]*\).*/\1/p' "$WORK/serve.log")"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || {
  echo "server never logged its listen address:" >&2
  cat "$WORK/serve.log" >&2
  exit 1
}

"$WORK/swiftest" test -servers "$ADDR@50" -max 2s \
  -terminate earlystop > "$WORK/live_default.txt" 2>&1 || {
  echo "live -terminate earlystop test failed (embedded default model):" >&2
  cat "$WORK/live_default.txt" >&2
  exit 1
}
grep -q 'bandwidth' "$WORK/live_default.txt" || {
  echo "live earlystop test produced no bandwidth line:" >&2
  cat "$WORK/live_default.txt" >&2
  exit 1
}
"$WORK/swiftest" test -servers "$ADDR@50" -max 2s \
  -terminate earlystop -terminate-model "$WORK/tiny_a.json" \
  > "$WORK/live_tiny.txt" 2>&1 || {
  echo "live -terminate earlystop test failed (trained artifact):" >&2
  cat "$WORK/live_tiny.txt" >&2
  exit 1
}
echo "earlystop live gate passed: both models served a loopback test"

echo "earlystop smoke passed: deterministic training, deterministic emulated early stop, live substrate on both models"
