#!/usr/bin/env bash
# Fleet dispatch smoke: plan a small fleet with `swiftest plan`, boot the dispatch
# control plane from the JSON artifact, register three real loopback servers
# against it, dispatch a client test through it, then black out one server via
# its fault plan and assert the control plane detects the death (K silent
# heartbeat windows -> server_dead) and dispatches subsequent clients to the
# survivors.
#
# Every listener binds an ephemeral port (:0); actual addresses come from the
# process logs.
set -euo pipefail

WORK="$(mktemp -d)"
PIDS=()
trap 'for p in "${PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done; rm -rf "$WORK"' EXIT

go build -o "$WORK/swiftest" ./cmd/swiftest

# --- Plan: a 3-server fleet from the §5.2 planner ---------------------------
"$WORK/swiftest" plan -tests-per-day 20000 -avg-bandwidth 100 -min-servers 3 \
  -json "$WORK/plan.json" > "$WORK/plan.out"
grep -q '"schema": "swiftest-deploy-plan/v1"' "$WORK/plan.json" || {
  echo "plan artifact missing schema tag" >&2
  cat "$WORK/plan.json" >&2
  exit 1
}

# --- Control plane from the artifact ----------------------------------------
"$WORK/swiftest" dispatch -plan "$WORK/plan.json" -addr 127.0.0.1:0 -v \
  > "$WORK/dispatch.log" 2>&1 &
PIDS+=($!)
DISPATCH_PID=$!

DISPATCH=
for _ in $(seq 1 50); do
  DISPATCH="$(sed -n 's|^fleet dispatch on http://\([^ ]*\).*|\1|p' "$WORK/dispatch.log")"
  [ -n "$DISPATCH" ] && break
  if ! kill -0 "$DISPATCH_PID" 2>/dev/null; then
    echo "dispatch exited at startup:" >&2; cat "$WORK/dispatch.log" >&2; exit 1
  fi
  sleep 0.1
done
[ -n "$DISPATCH" ] || { echo "no dispatch address logged" >&2; cat "$WORK/dispatch.log" >&2; exit 1; }

# --- Three registered loopback servers; server 0 will black out at t=6s -----
cat > "$WORK/faults.json" <<'EOF'
{"faults": [{"kind": "blackout", "server": 0, "at_ms": 6000, "duration_ms": 600000}]}
EOF

DOMAINS=(Beijing Shanghai Guangzhou)
SERVER_ADDRS=()
for i in 0 1 2; do
  extra=()
  if [ "$i" -eq 0 ]; then
    extra=(-faults "$WORK/faults.json" -fault-server 0)
  fi
  "$WORK/swiftest" serve -addr 127.0.0.1:0 -uplink 25 \
    -register "http://$DISPATCH" -domain "${DOMAINS[$i]}" "${extra[@]}" \
    > "$WORK/serve$i.log" 2>&1 &
  PIDS+=($!)
done

# Wait until all three have registered and answer pings.
for i in 0 1 2; do
  addr=
  for _ in $(seq 1 50); do
    addr="$(sed -n 's/^swiftest server listening on \([^ ]*\).*/\1/p' "$WORK/serve$i.log")"
    if [ -n "$addr" ] && grep -q '^registered with' "$WORK/serve$i.log"; then
      break
    fi
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "server $i never came up:" >&2; cat "$WORK/serve$i.log" >&2; exit 1; }
  SERVER_ADDRS+=("$addr")
  "$WORK/swiftest" ping -servers "$addr" -count 1 -timeout 500ms >/dev/null
done
grep -c '^register server=' "$WORK/dispatch.log" | grep -q '^3$' || {
  echo "dispatch did not log 3 registrations:" >&2; cat "$WORK/dispatch.log" >&2; exit 1
}

# --- Pre-kill: a dispatched client test completes ---------------------------
"$WORK/swiftest" test -dispatch "http://$DISPATCH" -key 1 -domain Beijing \
  -max 2s -timeout 10s > "$WORK/test1.out" 2>&1 || {
  echo "pre-kill dispatched test failed:" >&2; cat "$WORK/test1.out" >&2; exit 1
}
grep -q '^bandwidth' "$WORK/test1.out" || { cat "$WORK/test1.out" >&2; exit 1; }
grep -q '^assign client=1' "$WORK/dispatch.log" || {
  echo "dispatch never logged the assignment:" >&2; cat "$WORK/dispatch.log" >&2; exit 1
}

# --- Kill: the blackout silences server 0's heartbeats ----------------------
# K silent windows after the 6s mark the control plane must declare it dead.
DEAD_LINE=
for _ in $(seq 1 120); do
  DEAD_LINE="$(grep '^server_dead' "$WORK/dispatch.log" | head -1 || true)"
  [ -n "$DEAD_LINE" ] && break
  sleep 0.25
done
[ -n "$DEAD_LINE" ] || {
  echo "control plane never declared the blacked-out server dead:" >&2
  cat "$WORK/dispatch.log" >&2
  exit 1
}
DEAD_ADDR="$(sed -n 's/.*addr=\([^ ]*\).*/\1/p' <<<"$DEAD_LINE")"
echo "declared dead: $DEAD_ADDR"

# --- Post-kill: clients are dispatched to the survivors ---------------------
"$WORK/swiftest" test -dispatch "http://$DISPATCH" -key 2 -domain Beijing \
  -max 2s -timeout 10s > "$WORK/test2.out" 2>&1 || {
  echo "post-kill dispatched test failed:" >&2; cat "$WORK/test2.out" >&2; exit 1
}
NEW_PRIMARY="$(sed -n 's/^dispatched to \([^ ]*\).*/\1/p' "$WORK/test2.out")"
[ -n "$NEW_PRIMARY" ] || { cat "$WORK/test2.out" >&2; exit 1; }
if [ "$NEW_PRIMARY" = "$DEAD_ADDR" ]; then
  echo "post-kill client was dispatched to the dead server $DEAD_ADDR" >&2
  cat "$WORK/dispatch.log" >&2
  exit 1
fi

# The dead server must be gone from the live pool.
curl -fsS "http://$DISPATCH/servers" | grep -q '"State":3' || {
  echo "no server in state dead on /servers" >&2
  curl -fsS "http://$DISPATCH/servers" >&2
  exit 1
}
# And the fleet metrics must agree.
curl -fsS "http://$DISPATCH/metrics" > "$WORK/metrics.txt"
grep -q '^swiftest_fleet_servers_dead 1' "$WORK/metrics.txt" || {
  echo "metrics do not show one dead server:" >&2
  grep '^swiftest_fleet' "$WORK/metrics.txt" >&2
  exit 1
}
grep -q '^swiftest_fleet_assignments_total' "$WORK/metrics.txt" || {
  echo "missing swiftest_fleet_assignments_total" >&2; exit 1
}

echo "fleet smoke passed: dead=$DEAD_ADDR, post-kill client went to $NEW_PRIMARY"
