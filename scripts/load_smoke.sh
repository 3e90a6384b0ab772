#!/usr/bin/env bash
# Open-loop load smoke for CI: stand up a real TCP cluster behind
# `mendel serve`, drive it with `mendel-bench load`, and fail on any
# non-shed error. Two phases:
#
#   1. A 10s read mix against a generously provisioned gateway must
#      sustain the offered rate with zero errors.
#   2. A 5s burst mix against a deliberately tiny admission window must
#      shed (429) rather than error: overload stays bounded and correct.
#
# Phase 1's JSON result and phase 2's SLO state, dashboard frame and
# profiles land in slo_artifacts/.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
cleanup() {
  kill $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/mendel" ./cmd/mendel
go build -o "$workdir/mendel-node" ./cmd/mendel-node
go build -o "$workdir/mendel-datagen" ./cmd/mendel-datagen
go build -o "$workdir/mendel-bench" ./cmd/mendel-bench

"$workdir/mendel-datagen" -kind protein -n 30 -len 400 -out "$workdir/db.fasta"

"$workdir/mendel-node" -addr 127.0.0.1:7471 &
"$workdir/mendel-node" -addr 127.0.0.1:7472 &
sleep 1

"$workdir/mendel" index -nodes 127.0.0.1:7471,127.0.0.1:7472 -groups 2 \
  -kind protein -fasta "$workdir/db.fasta" -manifest "$workdir/cluster.mendel"

artifacts=slo_artifacts
rm -rf "$artifacts"
mkdir -p "$artifacts"

# Phase 1: sustained read mix, roomy limits. Any non-shed error fails.
# The sketch prefilter is coordinator-side state: `mendel serve` takes the
# -prefilter flag, the storage nodes need none (they answer SketchFetch
# either way). Serving with it on exercises the prefiltered fan-out under
# load; bloom mode is exact-recall so the load results are unchanged.
"$workdir/mendel" serve -manifest "$workdir/cluster.mendel" -addr 127.0.0.1:7461 \
  -prefilter "${MENDEL_PREFILTER:-bloom}" &
sleep 1
"$workdir/mendel-bench" load -url http://127.0.0.1:7461 \
  -rate 60 -duration 10s -mix read -qlen 64 -seed 1 \
  -json "$artifacts/read.json" -fail-on-errors

# The gateway forwards its registry to the TCP client, so /metrics must
# show bytes actually moving on the coordinator-to-node RPC path; zero (or
# absent) counters would mean the observability plumbing regressed.
metrics=$(curl -sf http://127.0.0.1:7461/metrics)
for counter in rpc_bytes_sent rpc_bytes_recv; do
  val=$(printf '%s\n' "$metrics" | awk -v c="$counter" '$1 == c {print $2}')
  if [ -z "${val:-}" ] || [ "$val" -eq 0 ]; then
    echo "/metrics $counter is ${val:-missing}; RPC byte accounting broken" >&2
    exit 1
  fi
done
echo "rpc byte accounting ok: sent=$(printf '%s\n' "$metrics" | awk '$1=="rpc_bytes_sent"{print $2}') recv=$(printf '%s\n' "$metrics" | awk '$1=="rpc_bytes_recv"{print $2}')"

# Phase 2: burst mix into a one-slot admission window, with the SLO
# watchdog armed on shed rate over short burn-rate windows and pprof
# capture wired to the first breach. The gateway must shed some of the
# overload as 429s and error on none of it — and the watchdog must leave
# ok while the burst is in flight, then recover once it stops (the bad
# intervals age out of the 6s slow window; silence reads as healthy).
# Prefilter OFF here on purpose: this phase probes admission control and
# the watchdog, and the sketch tier would let the gateway skip every group
# for random burst queries — the one-slot window never saturates and
# nothing sheds. Phase 1 already covers prefiltered serving under load.
# The rate has to overrun that one slot: a query on an otherwise idle
# gateway takes about 1 ms (its fan-out is dispatched without waiting), so
# the slot drains ~800/s and the burst seconds (4x the rate) offer 1600/s.
"$workdir/mendel" serve -manifest "$workdir/cluster.mendel" -addr 127.0.0.1:7462 \
  -prefilter off -max-inflight 1 -max-queue 2 \
  -sample-interval 250ms -slo-shed-rate 0.05 -slo-fast 2s -slo-slow 6s \
  -profile-dir "$artifacts/profiles" &
sleep 1

slo_level() {
  curl -sf http://127.0.0.1:7462/debug/slo \
    | grep -o '"Level":"[a-z]*"' | head -1 | cut -d'"' -f4 || true
}

"$workdir/mendel-bench" load -url http://127.0.0.1:7462 \
  -rate 400 -duration 5s -mix burst -qlen 64 -seed 2 \
  -json "$workdir/overload.json" -fail-on-errors &
loadpid=$!

breached=""
for _ in $(seq 1 40); do
  level=$(slo_level)
  if [ "$level" = "warn" ] || [ "$level" = "page" ]; then
    breached=$level
    break
  fi
  sleep 0.25
done
wait "$loadpid"
if [ -z "$breached" ]; then
  echo "SLO watchdog never left ok under a shedding burst" >&2
  curl -sf http://127.0.0.1:7462/debug/slo >&2 || true
  exit 1
fi
echo "slo breach observed: level=$breached"

recovered=""
for _ in $(seq 1 60); do
  level=$(slo_level)
  if [ "$level" = "ok" ]; then
    recovered=yes
    break
  fi
  sleep 0.5
done
if [ -z "$recovered" ]; then
  echo "SLO watchdog stuck breached after the overload stopped" >&2
  curl -sf http://127.0.0.1:7462/debug/slo >&2 || true
  exit 1
fi

# CI artifacts: the final SLO state, one dashboard frame, and whatever
# profiles the breach captured.
curl -sf http://127.0.0.1:7462/debug/slo -o "$artifacts/slo.json"
"$workdir/mendel" top -once -url http://127.0.0.1:7462 -window 30s \
  | tee "$artifacts/top.txt"
if ! grep -q "slo:" "$artifacts/top.txt"; then
  echo "mendel top -once rendered no SLO section" >&2
  exit 1
fi
if [ -z "$(ls -A "$artifacts/profiles" 2>/dev/null)" ]; then
  echo "breach captured no pprof profiles in $artifacts/profiles" >&2
  exit 1
fi
echo "profiles captured: $(ls "$artifacts/profiles" | tr '\n' ' ')"

shed=$(grep -o '"shed": *[0-9]*' "$workdir/overload.json" | grep -o '[0-9]*$')
if [ "${shed:-0}" -eq 0 ]; then
  echo "overload phase shed nothing; admission control not engaging" >&2
  exit 1
fi
echo "load smoke ok: overload shed $shed requests with zero errors," \
  "slo ${breached}->ok with profiles captured"
