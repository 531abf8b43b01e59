#!/usr/bin/env bash
# Docs link check: every code reference in docs/*.md (and README.md) must
# still exist in the tree, so the architecture/serving manuals cannot
# silently rot as the code moves.
#
# Two kinds of backtick-quoted references are checked:
#   1. path-like   — `src/runtime/executor.h`, `docs/serving.md`,
#                    `scripts/bench_smoke.sh` ... must exist as files/dirs;
#   2. symbol-like — namespace-qualified identifiers such as
#                    `runtime::InferenceServer` or `pool::CodecOptions`, and
#                    class-qualified ones such as `ServerOptions::workers`:
#                    every component must appear as a whole word somewhere
#                    under src/ tests/ bench/ examples/ scripts/.
#
# Usage: scripts/check_docs.sh   (from anywhere; resolves the repo root)
set -uo pipefail
cd "$(dirname "$0")/.."
status=0

for doc in docs/*.md README.md; do
  [ -f "$doc" ] || continue

  # Path-like references: at least one '/', only path characters.
  while IFS= read -r ref; do
    if [ ! -e "$ref" ]; then
      echo "MISSING PATH   $doc -> $ref"
      status=1
    fi
  done < <(grep -oE '`[A-Za-z0-9_.-]+(/[A-Za-z0-9_.-]+)+`' "$doc" \
             | tr -d '`' | sort -u)

  # Symbol references: namespace-qualified, or qualified by a class name.
  while IFS= read -r sym; do
    for part in ${sym//::/ }; do
      if ! grep -rqw -- "$part" src/ tests/ bench/ examples/ scripts/ 2>/dev/null; then
        echo "MISSING SYMBOL $doc -> $sym"
        status=1
        break
      fi
    done
  done < <(grep -oE '`((bswp|runtime|pool|quant|kernels|nn|sim|models|data|lowering)|[A-Z][A-Za-z0-9_]*)(::[A-Za-z0-9_]+)+`' "$doc" \
             | tr -d '`' | sort -u)
done

if [ "$status" -eq 0 ]; then
  echo "check_docs: all doc references resolve"
else
  echo "check_docs: stale references found (fix the doc or the code move)"
fi
exit $status
