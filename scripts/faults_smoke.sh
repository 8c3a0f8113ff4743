#!/usr/bin/env bash
# Fault-injection smoke: the same blackout plan must produce a degraded,
# failover-completed test both on the virtual-time emulator and over real
# loopback UDP — with the server loss visible in the run-record trace.
set -euo pipefail

WORK="$(mktemp -d)"
PIDS=()
trap 'for p in "${PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done; rm -rf "$WORK"' EXIT

go build -o "$WORK/swiftest" ./cmd/swiftest

# --- Leg 1: deterministic virtual-time failover -----------------------------
# Three 200 Mbps emulated servers on a 600 Mbps link; server 1 blacks out at
# 450 ms. The probe must fail over and finish degraded on the survivors.
cat > "$WORK/plan_sim.json" <<'EOF'
{"seed": 7, "faults": [{"kind": "blackout", "server": 1, "at_ms": 450}]}
EOF
cat > "$WORK/model600.json" <<'EOF'
{"version": 1, "components": [{"weight": 1, "mu": 600, "sigma": 60}]}
EOF

"$WORK/swiftest" simulate -capacity 600 -uplinks 200,200,200 \
  -model "$WORK/model600.json" -faults "$WORK/plan_sim.json" -seed 21 \
  -trace "$WORK/sim.jsonl" | tee "$WORK/sim.out"

grep -q 'degraded' "$WORK/sim.out" || {
  echo "emulated blackout did not report a degraded run" >&2
  exit 1
}
grep -q '"kind":"server_lost"' "$WORK/sim.jsonl" || {
  echo "emulated run-record carries no server_lost event" >&2
  exit 1
}

# --- Leg 2: the same plan over real loopback UDP ----------------------------
# Three loopback servers of 25 Mbps each; pool index 1 blacks out 2.5 s after
# startup (server fault times are wall time since NewServer). The model
# demands ~60 Mbps, so the client needs all three servers and must detect and
# survive the mid-test loss. A live test converges in ≈0.6 s, so the test is
# started 2.2 s after the servers: the blackout lands 0.3 s in, past the ramp
# and before the ten-sample window can close.
cat > "$WORK/plan_live.json" <<'EOF'
{"faults": [{"kind": "blackout", "server": 1, "at_ms": 2500}]}
EOF
cat > "$WORK/model60.json" <<'EOF'
{"version": 1, "components": [{"weight": 1, "mu": 60, "sigma": 6}]}
EOF

SERVERS=""
STARTED_NS="$(date +%s%N)"
for i in 0 1 2; do
  port=$((7910 + i))
  "$WORK/swiftest" serve -addr "127.0.0.1:$port" -uplink 25 \
    -faults "$WORK/plan_live.json" -fault-server "$i" &
  PIDS+=($!)
  SERVERS="${SERVERS:+$SERVERS,}127.0.0.1:$port@25"
done

# Wait until every server answers a ping.
for i in 0 1 2; do
  port=$((7910 + i))
  ok=0
  for _ in $(seq 1 50); do
    if "$WORK/swiftest" ping -servers "127.0.0.1:$port" -count 1 -timeout 200ms >/dev/null 2>&1; then
      ok=1
      break
    fi
    sleep 0.1
  done
  [ "$ok" -eq 1 ] || { echo "server on port $port never answered a ping" >&2; exit 1; }
done

WAIT_MS=$((2200 - ($(date +%s%N) - STARTED_NS) / 1000000))
[ "$WAIT_MS" -gt 0 ] || { echo "servers took over 2.2 s to answer; the blackout would miss the test" >&2; exit 1; }
sleep "$(printf '%d.%03d' $((WAIT_MS / 1000)) $((WAIT_MS % 1000)))"

"$WORK/swiftest" test -servers "$SERVERS" -model "$WORK/model60.json" \
  -max 4s -trace "$WORK/live.jsonl" | tee "$WORK/live.out"

grep -q 'degraded' "$WORK/live.out" || {
  echo "loopback blackout did not report a degraded run" >&2
  exit 1
}
grep -q '"kind":"server_lost"' "$WORK/live.jsonl" || {
  echo "loopback run-record carries no server_lost event" >&2
  exit 1
}

echo "fault smoke passed: emulated and loopback blackouts both failed over degraded"
