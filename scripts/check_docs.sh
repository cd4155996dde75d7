#!/usr/bin/env bash
# Docs consistency gate (tier-1, wired into run_tier1.sh):
#   1. every src/ subdirectory must be named in docs/architecture.md
#      (the "one line per subdirectory" list claims completeness);
#   2. every flag `ouessant_bench --help` prints must be documented in
#      EXPERIMENTS.md (the usage string and this check keep each other
#      honest — adding a flag without documenting it fails tier-1);
#   3. every repo path a doc references must exist — as-is, or as the
#      <path>.cpp / <path>.hpp source of a same-named binary target
#      (docs say `bench/bench_dpr`, the file is bench/bench_dpr.cpp);
#   4. every committed BENCH_*.json artifact must be named in
#      EXPERIMENTS.md — a benchmark record nobody documents is a
#      benchmark nobody can interpret or regenerate;
#   5. every backticked test name the docs cite (`Suite.Name`,
#      `Suite.*`, or a glob such as `MidRun.EveryWorkerKind*Identical`)
#      must match a test `ctest -N` lists for the build — a deleted or
#      renamed test must not stay cited as a guarantee. CHANGES.md is
#      history and is not checked.
#
# Usage: scripts/check_docs.sh [path/to/ouessant_bench]
#   The bench binary defaults to build/bench/ouessant_bench, and its
#   build tree (two directories up) is the one check 5 asks; checks 2
#   and 5 are skipped (with a warning) if the binary or the tree is
#   missing, so the script can run before a build without false
#   failures.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH="${1:-build/bench/ouessant_bench}"
DOCS=(README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md)
fail=0

echo "-- check 1: src/ subdirectories vs docs/architecture.md"
# Require the explicit `src/<name>` form — bare layer names occur all
# over the prose ("fault", "bus"), so only the rooted path counts as
# documentation.
for d in src/*/; do
  sub=$(basename "$d")
  if ! grep -qE "src/${sub}\b" docs/architecture.md; then
    echo "FAIL: src/${sub} is not mentioned in docs/architecture.md"
    fail=1
  fi
done

echo "-- check 2: ouessant_bench --help flags vs EXPERIMENTS.md"
if [[ -x "$BENCH" ]]; then
  # Scrape '--flag' tokens from the usage text the tool itself prints.
  flags=$("$BENCH" --help | grep -oE '\--[a-z-]+' | sort -u)
  for f in $flags; do
    if ! grep -q -- "$f" EXPERIMENTS.md; then
      echo "FAIL: flag $f ($BENCH --help) is undocumented in EXPERIMENTS.md"
      fail=1
    fi
  done
else
  echo "WARN: $BENCH not built; skipping the flag check"
fi

echo "-- check 3: doc-referenced paths exist"
# Candidate paths: top-level-dir-rooted tokens. Strip trailing
# punctuation and trailing slashes; ignore templated names (<...>).
refs=$(grep -ohE '\b(src|docs|scripts|bench|tools|tests|examples)/[A-Za-z0-9_./-]+' \
         "${DOCS[@]}" | sed -e 's/[.,;:)]*$//' -e 's|/$||' | sort -u)
for p in $refs; do
  [[ "$p" == *'<'* ]] && continue
  if [[ ! -e "$p" && ! -e "$p.cpp" && ! -e "$p.hpp" ]]; then
    echo "FAIL: docs reference $p, which does not exist"
    fail=1
  fi
done

echo "-- check 4: committed BENCH_*.json artifacts vs EXPERIMENTS.md"
for b in BENCH_*.json; do
  [[ -e "$b" ]] || continue
  if ! grep -q -- "$b" EXPERIMENTS.md; then
    echo "FAIL: $b is committed but never mentioned in EXPERIMENTS.md"
    fail=1
  fi
done

echo "-- check 5: backticked test names in the docs vs ctest -N"
BUILD_DIR=$(dirname "$(dirname "$BENCH")")
tests=""
if [[ -f "$BUILD_DIR/CTestTestfile.cmake" ]]; then
  # "AllExperiments/Suite.Name/param" (a parameterized instance) is
  # cited as "Suite.Name": drop the instantiation prefix and the param.
  tests=$(ctest --test-dir "$BUILD_DIR" -N |
            sed -n 's/^ *Test *#[0-9]*: //p' |
            sed -E -e 's|^[^./]*/||' -e 's|/.*$||' | sort -u)
fi
if [[ -n "$tests" ]]; then
  refs=$({ grep -ohE '`[A-Z][A-Za-z0-9]*\.[A-Z*][A-Za-z0-9*]*`' \
             "${DOCS[@]}" || true; } | tr -d '`' | sort -u)
  while IFS= read -r ref; do
    [[ -z "$ref" ]] && continue
    re=$(sed -e 's/\./\\./g' -e 's/\*/.*/g' <<< "$ref")
    if ! grep -qxE "$re" <<< "$tests"; then
      echo "FAIL: docs cite test $ref, which ctest -N does not list in $BUILD_DIR"
      fail=1
    fi
  done <<< "$refs"
else
  echo "WARN: no tests listed in $BUILD_DIR; skipping the test-name check"
fi

if [[ "$fail" -ne 0 ]]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: OK"
