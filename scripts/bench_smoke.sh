#!/usr/bin/env bash
# Smoke-run every bench binary with minimal reps so the paper-table, serving
# and kernel benches cannot rot between performance PRs. Every bench honors
# BSWP_BENCH_SMOKE=1 (tiny datasets, few reps — numbers are meaningless,
# only the code paths matter).
#
# Then, for every committed baseline bench/baselines/BENCH_*.json, the file
# of the same name this run emitted (benches write into the working
# directory) must exist, be fresh, and carry exactly the baseline's key set.
# A key a bench stops emitting — or starts emitting — fails here, so a
# stale baseline cannot keep a vanished key "resolved" for
# scripts/check_docs.sh.
# Usage: scripts/bench_smoke.sh [build-dir]
set -uo pipefail
build="${1:-build}"
baselines="$(cd "$(dirname "$0")/../bench/baselines" && pwd)"
export BSWP_BENCH_SMOKE=1
status=0
started="$(mktemp)"
trap 'rm -f "$started"' EXIT
for bin in "$build"/bench/*; do
  [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  start=$SECONDS
  "$bin" >/dev/null || { echo "FAIL $name"; status=1; continue; }
  echo "ok   $name ($((SECONDS - start))s)"
done

# The top-level keys of a flat one-"key": value-per-line bench JSON, sorted.
keys() { grep -oE '^[[:space:]]*"[^"]+"[[:space:]]*:' "$1" | sed -E 's/^[[:space:]]*"([^"]+)".*/\1/' | sort; }
for base in "$baselines"/BENCH_*.json; do
  [ -f "$base" ] || continue
  emitted="$(basename "$base")"
  if [ ! -f "$emitted" ] || [ ! "$emitted" -nt "$started" ]; then
    echo "FAIL keys $emitted: not written by this run"
    status=1
    continue
  fi
  if ! key_diff="$(diff <(keys "$base") <(keys "$emitted"))"; then
    echo "FAIL keys $emitted differs from bench/baselines/$emitted (< baseline only, > emitted only):"
    echo "$key_diff" | grep -E '^[<>]'
    status=1
    continue
  fi
  echo "ok   keys $emitted"
done
exit $status
