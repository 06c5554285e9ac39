#!/usr/bin/env bash
# Mutation catalogue: copies the tree to a scratch directory, applies
# each patch of `scripts/mutants/*.patch` there in turn, and runs the
# workspace tests against it. Prints one line per patch:
#
#   killed          a test failed (or the mutant did not build)
#   survived        every test passed: no test notices the mutation
#   does not apply  the code the patch mutates has moved
#
# then the score. A patch that does not apply is an error — the
# catalogue must not rot quietly — and makes the script exit non-zero;
# a survivor does not. A mutation that only hangs or only changes
# performance does not belong here; a test run longer than 900 s is
# reported as killed by timeout. Gates nothing in CI: one run costs
# about a minute per patch. The scratch copy goes where `mktemp -d`
# puts it (`TMPDIR`).
#
#   scripts/mutants.sh
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# The tree as it stands, without build outputs; one target directory
# serves every mutant, so each rebuilds only the crates it touches.
tar -C "$root" --exclude=./target --exclude=./.git --exclude=./.bench_build \
  --exclude=./benchmark/target --exclude=./benchmark/out -cf - . | tar -C "$work" -xf -
export CARGO_TARGET_DIR="$work/target"
cd "$work"
killed=0 survived=0 broken=0
for p in "$root"/scripts/mutants/*.patch; do
  name=$(basename "$p" .patch)
  if ! git apply --check "$p" 2>/dev/null; then
    echo "$name: does not apply"
    broken=$((broken + 1))
    continue
  fi
  git apply "$p"
  if timeout 900 cargo test -q --workspace --no-fail-fast \
    >"$work/$name.log" 2>&1; then
    echo "$name: survived"
    survived=$((survived + 1))
  else
    # The tests that failed, or why none ran.
    why=$(grep -oE '^---- [^ ]+' "$work/$name.log" | cut -c6- | head -3 | paste -sd, - || true)
    echo "$name: killed (${why:-no test ran: build failure or timeout})"
    killed=$((killed + 1))
  fi
  git apply -R "$p"
done
echo "score: $killed killed, $survived survived, $broken do not apply"
[ "$broken" -eq 0 ]
