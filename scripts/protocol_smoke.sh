#!/usr/bin/env bash
# Protocol smoke: the CI gate for the one wire protocol.
#
#  1. A test completes under each server wire mode (batched and fallback),
#     the run-record carries the v2 schema with the estimator/regime tail,
#     and the server counts exactly the session we opened, closed by a Bye.
#  2. There is no protocol knob left: `test -protocol` is an unknown flag.
#  3. A keyed server refuses an untokened client — observable in both the
#     exit status and the auth-reject counter — and admits a tokened one.
#  4. Behind `swiftest relay -rate 20 -delay 10ms` a test stops on the 3 %
#     rule inside 2 s of probing with the link's rate, to 2 %, as its answer.
#
# All listeners bind ephemeral ports; addresses are scraped from logs.
set -euo pipefail

WORK="$(mktemp -d)"
# start_server runs in a command substitution, so it records its server's pid
# in a file: a variable set in that subshell would be lost to the trap.
trap 'kill $(cat "$WORK/pids" 2>/dev/null) 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/swiftest" ./cmd/swiftest

# start_server <logfile> <extra flags...>; echoes "serve_addr metrics_addr"
start_server() {
  local log="$1"; shift
  "$WORK/swiftest" serve -addr 127.0.0.1:0 -uplink 100 -metrics 127.0.0.1:0 "$@" \
    > "$log" 2>&1 &
  local pid=$!
  echo "$pid" >> "$WORK/pids"
  local serve= metrics=
  for i in $(seq 1 50); do
    serve="$(sed -n 's/^swiftest server listening on \([^ ]*\).*/\1/p' "$log")"
    metrics="$(sed -n 's|^metrics on http://\([^/]*\)/metrics.*|\1|p' "$log")"
    [ -n "$serve" ] && [ -n "$metrics" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "server exited before logging its addresses:" >&2
      cat "$log" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ -z "$serve" ] || [ -z "$metrics" ]; then
    echo "could not parse listen addresses from $log:" >&2
    cat "$log" >&2
    exit 1
  fi
  echo "$serve $metrics"
}

run_test() { # run_test <outfile> <args...>
  local out="$1"; shift
  "$WORK/swiftest" test -max 2s "$@" > "$out" 2>"$out.err"
}

counter() { # counter <metricsfile> <series>
  sed -n "s/^$2 \\([0-9]*\\)\$/\\1/p" "$1"
}

# --- 1: open server, both wire modes ----------------------------------------
for mode in auto fallback; do
  read -r ADDR METRICS <<< "$(start_server "$WORK/serve-$mode.log" -wire "$mode")"

  run_test "$WORK/test-$mode.txt" -servers "$ADDR@100" -trace "$WORK/test-$mode.jsonl"

  head -1 "$WORK/test-$mode.jsonl" | grep -q '"schema":"swiftest-run-record/v2"' || {
    echo "run-record header missing the v2 schema tag ($mode):" >&2
    head -1 "$WORK/test-$mode.jsonl" >&2
    exit 1
  }
  for kind in estimate bdp_regime; do
    grep -q "\"kind\":\"$kind\"" "$WORK/test-$mode.jsonl" || {
      echo "run-record missing $kind event ($mode)" >&2
      exit 1
    }
  done

  # The server saw exactly the session we opened, and saw it end with a Bye.
  curl -fsS "http://$METRICS/metrics" > "$WORK/metrics-$mode.txt"
  for series in swiftest_server_sessions_started_total swiftest_server_sessions_finished_total; do
    [ "$(counter "$WORK/metrics-$mode.txt" "$series")" = 1 ] || {
      echo "expected $series 1 on the $mode server:" >&2
      grep '^swiftest_server_sessions' "$WORK/metrics-$mode.txt" >&2
      exit 1
    }
  done
done

# --- 2: the protocol knob is gone -------------------------------------------
if run_test "$WORK/knob.txt" -servers "$ADDR@100" -protocol v1; then
  echo "test -protocol v1 was accepted; the flag should not exist" >&2
  exit 1
fi
grep -q "flag provided but not defined: -protocol" "$WORK/knob.txt.err" || {
  echo "test -protocol v1 failed for another reason:" >&2
  cat "$WORK/knob.txt.err" >&2
  exit 1
}

# --- 3: lease-auth rejection ------------------------------------------------
KEY=5857300629132885844   # arbitrary non-zero deployment key
read -r ADDR METRICS <<< "$(start_server "$WORK/serve-keyed.log" -authkey "$KEY")"

if run_test "$WORK/noauth.txt" -servers "$ADDR@100"; then
  echo "untokened client was admitted by a keyed server:" >&2
  cat "$WORK/noauth.txt" >&2
  exit 1
fi
grep -q "auth" "$WORK/noauth.txt.err" || {
  echo "rejection did not name auth:" >&2
  cat "$WORK/noauth.txt.err" >&2
  exit 1
}
curl -fsS "http://$METRICS/metrics" > "$WORK/metrics-keyed.txt"
REJECTS="$(counter "$WORK/metrics-keyed.txt" swiftest_server_auth_rejects_total)"
if [ -z "$REJECTS" ] || [ "$REJECTS" -lt 1 ]; then
  echo "auth-reject counter did not move:" >&2
  grep '^swiftest_server_auth' "$WORK/metrics-keyed.txt" >&2 || true
  exit 1
fi
if [ "$(counter "$WORK/metrics-keyed.txt" swiftest_server_sessions_started_total)" != 0 ]; then
  echo "keyed server started a session for an untokened client" >&2
  exit 1
fi

TOKEN="$("$WORK/swiftest" token -authkey "$KEY" -server 0 -seq 1)"
run_test "$WORK/auth.txt" -servers "$ADDR@100" -token "$TOKEN"
grep -q '^bandwidth : ' "$WORK/auth.txt" || {
  echo "tokened client produced no result:" >&2
  cat "$WORK/auth.txt" "$WORK/auth.txt.err" >&2
  exit 1
}

# --- 4: a live test converges through an emulated link -----------------------
read -r ADDR METRICS <<< "$(start_server "$WORK/serve-relay.log")"
"$WORK/swiftest" relay -target "$ADDR" -rate 20 -delay 10ms > "$WORK/relay.log" 2>&1 &
echo $! >> "$WORK/pids"
RELAY=
for i in $(seq 1 50); do
  RELAY="$(sed -n 's/^emulated .* link on \([^ ]*\) .*/\1/p' "$WORK/relay.log")"
  [ -n "$RELAY" ] && break
  sleep 0.1
done
[ -n "$RELAY" ] || { echo "relay logged no address:" >&2; cat "$WORK/relay.log" >&2; exit 1; }
# The two-mode model of examples/live-udp and the ledger's live-loopback rig.
cat > "$WORK/model.json" <<'MODEL'
{"version": 1, "components": [
  {"weight": 0.6, "mu": 12, "sigma": 2},
  {"weight": 0.4, "mu": 35, "sigma": 5}
]}
MODEL
field() { sed -n "s/^  \"$2\": \([^,]*\),\{0,1\}\$/\1/p" "$1"; }
# Best of three: a shared CI host can stall one test for tens of milliseconds.
LIVE=
for try in 1 2 3; do
  "$WORK/swiftest" test -json -max 3s -model "$WORK/model.json" -servers "$RELAY@100" > "$WORK/live.json"
  MBPS="$(field "$WORK/live.json" BandwidthMbps)"
  NS="$(field "$WORK/live.json" Duration)"
  CONVERGED="$(field "$WORK/live.json" Converged)"
  LIVE="$MBPS Mbit/s in $((NS / 1000000)) ms, converged=$CONVERGED"
  if [ "$CONVERGED" = true ] && [ "$NS" -lt 2000000000 ] &&
     awk -v m="$MBPS" 'BEGIN { exit !(m >= 19.6 && m <= 20.4) }'; then
    break
  fi
  echo "live test through the relay, try $try: $LIVE" >&2
  [ "$try" -lt 3 ] || { echo "no test in three converged inside 2 s within 2 % of 20 Mbit/s" >&2; exit 1; }
done

echo "protocol smoke passed: both wire modes, no protocol knob, auth rejects=$REJECTS, through a 20 Mbit/s relay $LIVE"
