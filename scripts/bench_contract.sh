#!/usr/bin/env bash
# Benchmark-contract smoke: what the PR pipeline does with BENCHMARK.json,
# in two minutes. The committed files of HEAD alone are unpacked into an empty
# directory (a file never `git add`ed is missing there, as it is for the
# pipeline), the module proxy is off (no dependency may need the network),
# and each workload must exit 0 with "correct":true on its last line. A
# workload that fails shows the tail of its output and every "# GATE FAILED"
# line in it.
#
#   scripts/bench_contract.sh            untraced pass (--trace 0) of HEAD
#   scripts/bench_contract.sh 1          traced pass
#   scripts/bench_contract.sh 0 "$(git stash create)"
#                                        the staged tree, before committing
set -euo pipefail
cd "$(dirname "$0")/.."
trace="${1:-0}"
tree="${2:-HEAD}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$tree" | tar -x -C "$tmp"
export GOPROXY=off

# gates prints every gate the harness reports as failed in output file $1.
gates() {
  grep -F '# GATE FAILED' "$1" >&2 || true
}

for w in query_short query_long ingest_bulk serve_mixed; do
  echo "== $w (trace $trace)"
  out="$tmp/$w.out"
  if ! bash "$tmp/benchmark/run.sh" --workload "$w" --seed 1 --seconds 3 --trace "$trace" >"$out" 2>&1; then
    tail -20 "$out" >&2
    gates "$out"
    echo "bench_contract: $w exited non-zero" >&2
    exit 1
  fi
  if ! tail -1 "$out" | grep -Eq '"correct": ?true'; then
    tail -5 "$out" >&2
    gates "$out"
    echo "bench_contract: $w did not end with \"correct\":true" >&2
    exit 1
  fi
  tail -1 "$out" | cut -c1-200
done
echo "bench_contract: all four workloads correct from a pristine archive"
