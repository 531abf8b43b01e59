#!/usr/bin/env bash
# Docs link check: every code reference in docs/*.md (and README.md) must
# still exist in the tree, so the architecture/serving manuals cannot
# silently rot as the code moves.
#
# Three kinds of backtick-quoted references are checked:
#   1. path-like   — `src/runtime/executor.h`, `docs/serving.md`,
#                    `scripts/bench_smoke.sh` ... must exist as files/dirs;
#   2. symbol-like — namespace-qualified identifiers such as
#                    `runtime::InferenceServer` or `pool::CodecOptions`, and
#                    class-qualified ones such as `ServerOptions::workers`:
#                    every component must appear as a whole word somewhere
#                    under src/ tests/ bench/ examples/ scripts/ perfbench/;
#   3. snake_case  — bare lowercase identifiers with at least one underscore
#                    such as `max_batch` or `affinity_hits` (option and stats
#                    fields named without their struct): each must appear as
#                    a whole word under the same directories.
#
# Usage: scripts/check_docs.sh   (from anywhere; resolves the repo root)
set -uo pipefail
cd "$(dirname "$0")/.."
status=0
code_dirs=(src/ tests/ bench/ examples/ scripts/ perfbench/)

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
      if ! grep -rqw -- "$part" "${code_dirs[@]}" 2>/dev/null; then
        echo "MISSING SYMBOL $doc -> $sym"
        status=1
        break
      fi
    done
  done < <(grep -oE '`((bswp|runtime|pool|quant|kernels|nn|sim|models|data|lowering)|[A-Z][A-Za-z0-9_]*)(::[A-Za-z0-9_]+)+`' "$doc" \
             | tr -d '`' | sort -u)

  # Bare snake_case identifiers.
  while IFS= read -r ident; do
    if ! grep -rqw -- "$ident" "${code_dirs[@]}" 2>/dev/null; then
      echo "MISSING IDENT  $doc -> $ident"
      status=1
    fi
  done < <(grep -oE '`[a-z][a-z0-9]*(_[a-z0-9]+)+`' "$doc" | tr -d '`' | sort -u)
done

if [ "$status" -eq 0 ]; then
  echo "check_docs: all doc references resolve"
else
  echo "check_docs: stale references found (fix the doc or the code move)"
fi
exit $status
