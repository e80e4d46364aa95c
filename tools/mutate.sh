#!/usr/bin/env bash
# Mutation gate: checks that the tests still see the faults they were written
# to catch.
#
# Each tools/mutants/<name>.diff is a small unified diff against the
# repository (applied with `git apply`, paths relative to the root) whose
# leading comment lines name the tests that must catch it:
#
#   # test: <test target> [gtest arguments...]
#
# One or more `# test:` lines; everything before the first `diff`/`---` line
# is ignored by `git apply`. The script copies the tracked tree into a scratch
# directory, builds the named test targets once and runs each named test
# unmutated (they must pass), then per mutant applies the diff, rebuilds only
# its targets, runs its tests and reverts. A mutant is killed when one of its
# tests fails and survived when all pass. The gate fails on a survivor, on a
# mutant that no longer applies (the code it mutates moved: refresh the diff
# in the change that moved it) and on a mutant that does not build.
#
# Usage: tools/mutate.sh [WORKDIR] [MUTANT...]
#   WORKDIR  scratch directory for the copy and its build (default: a new
#            directory under ${TMPDIR:-/tmp}); reused builds are incremental
#   MUTANT   mutant names (file names without .diff); default: all of them
# Exit status 0 when every mutant is killed.
set -u
repo=$(cd "$(dirname "$0")/.." && pwd)
work=${1:-$(mktemp -d "${TMPDIR:-/tmp}/finch-mutate.XXXXXX")}
shift $(($# > 0 ? 1 : 0))
jobs=$(nproc 2>/dev/null || echo 2)
start=$(date +%s)

mutants=()
if [ $# -gt 0 ]; then
  for m in "$@"; do mutants+=("$repo/tools/mutants/$m.diff"); done
else
  mutants=("$repo"/tools/mutants/*.diff)
fi

# The `# test:` lines of a mutant, one per line.
tests_of() { sed -n 's/^# test: *//p' "$1"; }
# The target (first word) of each test line, deduplicated.
targets_of() { tests_of "$1" | awk '{print $1}' | sort -u; }

# Runs one test line from the build tree; returns its exit status.
run_test() {
  local target=$1
  shift
  (cd "$work/build" && "./tests/$target" "$@" >/dev/null 2>&1)
}

echo "MUTATE work dir: $work"
mkdir -p "$work/tree"
rm -rf "$work/tree"/*
git -C "$repo" ls-files -z | tar -C "$repo" --null -T - -cf - | tar -C "$work/tree" -xf -
cmake -S "$work/tree" -B "$work/build" >"$work/configure.log" 2>&1 || {
  echo "MUTATE [!!] configure failed: $work/configure.log"
  exit 1
}

all_targets=$(for m in "${mutants[@]}"; do targets_of "$m"; done | sort -u)
# shellcheck disable=SC2086
if ! cmake --build "$work/build" -j "$jobs" --target $all_targets >"$work/build.log" 2>&1; then
  echo "MUTATE [!!] the unmutated tree does not build: $work/build.log"
  exit 1
fi

failures=0
for m in "${mutants[@]}"; do
  while IFS= read -r line; do
    # shellcheck disable=SC2086
    if ! run_test $line; then
      echo "MUTATE [!!] fails unmutated: $line ($(basename "$m"))"
      failures=$((failures + 1))
    fi
  done < <(tests_of "$m")
done
[ "$failures" -eq 0 ] || exit 1

for m in "${mutants[@]}"; do
  name=$(basename "$m" .diff)
  t0=$(date +%s)
  if [ -z "$(tests_of "$m")" ]; then
    echo "MUTATE [!!] $name names no test"
    failures=$((failures + 1))
    continue
  fi
  if ! git -C "$work/tree" apply --check "$m" 2>/dev/null; then
    echo "MUTATE [!!] $name no longer applies: refresh $m"
    failures=$((failures + 1))
    continue
  fi
  git -C "$work/tree" apply "$m"
  verdict=survived
  # shellcheck disable=SC2046
  if ! cmake --build "$work/build" -j "$jobs" --target $(targets_of "$m") >"$work/$name.build.log" 2>&1; then
    verdict="does not build ($work/$name.build.log)"
  else
    while IFS= read -r line; do
      # shellcheck disable=SC2086
      if ! run_test $line; then
        verdict=killed
        break
      fi
    done < <(tests_of "$m")
  fi
  git -C "$work/tree" apply -R "$m"
  if [ "$verdict" = killed ]; then
    echo "MUTATE [ok] $name killed ($(($(date +%s) - t0)) s)"
  else
    echo "MUTATE [!!] $name $verdict ($(($(date +%s) - t0)) s)"
    failures=$((failures + 1))
  fi
done

# Leave the build matching the unmutated tree for a reused WORKDIR.
# shellcheck disable=SC2086
cmake --build "$work/build" -j "$jobs" --target $all_targets >"$work/build.log" 2>&1

echo "MUTATE ${#mutants[@]} mutants, $failures failing, $(($(date +%s) - start)) s"
[ "$failures" -eq 0 ]
