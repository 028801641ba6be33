#!/usr/bin/env bash
# Header self-containment check: every public header under src/phch must
# compile standalone (its own includes are sufficient — no reliance on what
# a particular .cpp happened to include first). Run from the repo root:
#
#   tools/check_headers.sh [compiler]
#
# Every header (including src/phch/obs/) is compiled twice: with and
# without -DPHCH_TELEMETRY=1, so both sides of the telemetry gate stay
# self-contained.
#
# Each header must also carry a `#pragma once` include guard — a missing
# guard compiles fine standalone and only explodes at a distance.
#
# When clang++ is on PATH (and is not already the chosen compiler), every
# configuration is additionally compiled under clang++ with -Wthread-safety
# -Werror, so the phase-capability annotations (utils/phase_caps.h) are
# *parsed and analyzed*, not just preprocessed away as they are under g++.
# Runners without clang++ skip that pass with a notice — the CI
# static-analysis job always has it.
#
# Exits nonzero listing every header/configuration that fails.
set -u

cxx="${1:-${CXX:-g++}}"
root="$(cd "$(dirname "$0")/.." && pwd)"
failures=0
checked=0

clangxx=""
if command -v clang++ >/dev/null 2>&1; then
  case "$cxx" in
    clang++*) ;;  # already the primary compiler; no second pass needed
    *) clangxx="clang++" ;;
  esac
fi
if [ -z "$clangxx" ] && ! command -v clang++ >/dev/null 2>&1; then
  echo "note: clang++ not found; skipping the -Wthread-safety pass"
fi

while IFS= read -r header; do
  if ! grep -q '^[[:space:]]*#[[:space:]]*pragma[[:space:]]\+once' "$header"; then
    echo "MISSING #pragma once: ${header#"$root"/}"
    failures=$((failures + 1))
  fi
  for extra in "" "-DPHCH_TELEMETRY=1"; do
    checked=$((checked + 1))
    # shellcheck disable=SC2086  # $extra is intentionally word-split
    if ! "$cxx" -std=c++20 -fsyntax-only -I"$root/src" $extra -x c++ "$header" \
        2>/tmp/hdr_err.$$; then
      echo "NOT SELF-CONTAINED (${extra}): ${header#"$root"/}"
      sed 's/^/    /' </tmp/hdr_err.$$ | head -15
      failures=$((failures + 1))
    fi
    if [ -n "$clangxx" ]; then
      checked=$((checked + 1))
      # shellcheck disable=SC2086
      if ! "$clangxx" -std=c++20 -fsyntax-only -Wthread-safety -Werror \
          -I"$root/src" $extra -x c++ "$header" 2>/tmp/hdr_err.$$; then
        echo "CLANG THREAD-SAFETY (${extra}): ${header#"$root"/}"
        sed 's/^/    /' </tmp/hdr_err.$$ | head -15
        failures=$((failures + 1))
      fi
    fi
  done
done < <(find "$root/src/phch" -name '*.h' | sort)

rm -f /tmp/hdr_err.$$
if [ "$checked" -eq 0 ]; then
  # An empty header list means the tree layout changed (or the script moved);
  # "0 checked, 0 failures" must not pass as green.
  echo "error: no headers found under $root/src/phch" >&2
  exit 1
fi
echo "checked $checked header compilations, $failures failure(s)"
[ "$failures" -eq 0 ]
