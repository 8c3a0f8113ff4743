#!/usr/bin/env bash
# Wire hot-path smoke: through the full pacing wheel the batched syscall path
# must beat the portable fallback by the refactor's ≥3× per-datagram target
# (zero allocations per tick is tier-1: TestWheelAdvanceZeroAllocs), a GRO
# receive of a GSO sender's bursts must cost at most half what recvmmsg of
# the split datagrams does, and a server forced onto either path must still
# complete a real loopback test.
set -euo pipefail

WORK="$(mktemp -d)"
PIDS=()
trap 'for p in "${PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done; rm -rf "$WORK"' EXIT

# --- Leg 1: benchmark gate --------------------------------------------------
# BenchmarkPacingWheel runs both syscall paths through the identical pacing
# path, 64 sessions at 20 Mbps each; the gate is the ratio of its two
# ns/datagram metrics.
go test -run='^$' -bench='BenchmarkPacingWheel/(batched|fallback)-64' -benchtime=200x \
  ./internal/transport | tee "$WORK/bench.out"

# metric <leg> <unit>: the value go test printed before <unit> on <leg>'s line.
metric() {
  awk -v leg="BenchmarkPacingWheel/$1-64" -v unit="$2" \
    'index($1, leg) == 1 { for (i = 2; i < NF; i++) if ($(i + 1) == unit) print $i }' "$WORK/bench.out"
}

batched="$(metric batched ns/datagram)"
fallback="$(metric fallback ns/datagram)"
gso="$(metric batched gso)"
[ -n "$batched" ] && [ -n "$fallback" ] && [ -n "$gso" ] || {
  echo "BenchmarkPacingWheel did not report ns/datagram and gso for both 64-session legs" >&2
  exit 1
}
speedup="$(awk -v b="$batched" -v f="$fallback" 'BEGIN { printf "%.2f", f / b }')"

if awk -v g="$gso" 'BEGIN { exit (g == 1) ? 0 : 1 }'; then
  awk -v s="$speedup" 'BEGIN { exit (s >= 3.0) ? 0 : 1 }' || {
    echo "batched/fallback speedup = ${speedup}x ($batched vs $fallback ns/datagram), want >= 3x" >&2
    exit 1
  }
  echo "wire bench gate passed: ${speedup}x speedup ($batched vs $fallback ns/datagram)"
else
  echo "wire bench gate: no segmentation offload on this kernel, speedup target skipped (${speedup}x)"
fi

# --- Leg 2: receive gate ----------------------------------------------------
# BenchmarkRecvCoalesced sends 50 × 1200-byte GSO bursts and reads them back
# by recvmmsg into 16 × 2 KiB buffers (plain) or with UDP GRO into
# 2 × 64 KiB buffers (gro); the gate is the ratio of their ns/datagram.
go test -run='^$' -bench='BenchmarkRecvCoalesced' -benchtime=2000x \
  ./internal/transport/batchio | tee "$WORK/recv.out"

# recv_metric <leg>: the ns/datagram go test printed on <leg>'s line.
recv_metric() {
  awk -v leg="BenchmarkRecvCoalesced/$1" \
    'index($1, leg) == 1 { for (i = 2; i < NF; i++) if ($(i + 1) == "ns/datagram") print $i }' "$WORK/recv.out"
}

plain="$(recv_metric plain)"
gro="$(recv_metric gro)"
if [ -n "$plain" ] && [ -n "$gro" ]; then
  ratio="$(awk -v p="$plain" -v g="$gro" 'BEGIN { printf "%.2f", p / g }')"
  awk -v r="$ratio" 'BEGIN { exit (r >= 2.0) ? 0 : 1 }' || {
    echo "plain/gro receive ratio = ${ratio}x ($plain vs $gro ns/datagram), want >= 2x" >&2
    exit 1
  }
  echo "receive gate passed: GRO ${ratio}x cheaper ($gro vs $plain ns/datagram)"
else
  echo "receive gate: no segmentation or receive offload on this kernel, GRO target skipped"
fi

# --- Leg 3: both paths serve a real client ----------------------------------
# A forced-fallback server and an auto (batched) server must each carry a
# complete loopback bandwidth test — the syscall path is invisible above the
# socket.
go build -o "$WORK/swiftest" ./cmd/swiftest
cat > "$WORK/model20.json" <<'EOF'
{"version": 1, "components": [{"weight": 1, "mu": 20, "sigma": 2}]}
EOF

port=7930
for mode in fallback auto; do
  "$WORK/swiftest" serve -addr "127.0.0.1:$port" -uplink 25 -wire "$mode" &
  PIDS+=($!)
  ok=0
  for _ in $(seq 1 50); do
    if "$WORK/swiftest" ping -servers "127.0.0.1:$port" -count 1 -timeout 200ms >/dev/null 2>&1; then
      ok=1
      break
    fi
    sleep 0.1
  done
  [ "$ok" -eq 1 ] || { echo "server (-wire $mode) never answered a ping" >&2; exit 1; }

  "$WORK/swiftest" test -servers "127.0.0.1:$port@25" -model "$WORK/model20.json" \
    -max 3s | tee "$WORK/test_$mode.out"
  grep -q 'bandwidth' "$WORK/test_$mode.out" || {
    echo "loopback test against -wire $mode produced no bandwidth estimate" >&2
    exit 1
  }
  port=$((port + 1))
done

echo "wire smoke passed: bench and receive gates met, both syscall paths served complete tests"
