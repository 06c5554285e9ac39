#!/usr/bin/env bash
# Mutation catalogue: copies the tree to a scratch directory, applies
# each patch of `scripts/mutants/*.patch` there in turn — or of the
# patches whose names (without `.patch`) match one of the glob patterns
# given as arguments — and runs the workspace tests against it. Prints
# one line per patch:
#
#   killed          a test failed (or the mutant did not build)
#   survived        every test passed: no test notices the mutation
#   does not apply  the code the patch mutates has moved
#
# then the score. A survivor and a patch that does not apply are both
# errors — no test notices the mutation, or the catalogue rots quietly
# — and make the script exit non-zero, as does a pattern that names no
# patch. A mutation that only hangs or only changes performance does
# not belong here. Each run is bounded in time and in memory: a test
# run longer than 900 s is reported as killed by timeout, and every
# process of a run (cargo, rustc, the test binaries) is capped at
# 2 GiB of data (`ulimit -d`, set in the run's subshell only; the
# unmutated tree builds and passes under half of it), so a mutant
# that makes a test allocate without bound — a scheduling loop that
# never ends, say — is reported as killed (out of memory) instead of
# taking the host's memory. One run costs about a minute per patch; CI
# runs the priority mutants (`msg-*`, `fold-*`, `steal-*`). The scratch
# copy goes where `mktemp -d` puts it (`TMPDIR`).
#
#   scripts/mutants.sh                   # the whole catalogue
#   scripts/mutants.sh 'msg-*' 'fold-*'  # the patches these globs name
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
[ $# -gt 0 ] || set -- '*'
patches=()
for p in "$root"/scripts/mutants/*.patch; do
  name=$(basename "$p" .patch)
  for glob in "$@"; do
    # shellcheck disable=SC2053 # the pattern is meant to match
    if [[ $name == $glob ]]; then
      patches+=("$p")
      break
    fi
  done
done
if [ ${#patches[@]} -eq 0 ]; then
  echo "no patch in scripts/mutants/ matches: $*" >&2
  exit 1
fi
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# The tree as it stands, without build outputs; one target directory
# serves every mutant, so each rebuilds only the crates it touches.
tar -C "$root" --exclude=./target --exclude=./.git --exclude=./.bench_build \
  --exclude=./benchmark/target --exclude=./benchmark/out -cf - . | tar -C "$work" -xf -
export CARGO_TARGET_DIR="$work/target"
cd "$work"
killed=0 survived=0 broken=0
data_kb=$((2 * 1024 * 1024))
for p in "${patches[@]}"; do
  name=$(basename "$p" .patch)
  if ! git apply --check "$p" 2>/dev/null; then
    echo "$name: does not apply"
    broken=$((broken + 1))
    continue
  fi
  git apply "$p"
  if (ulimit -d "$data_kb" && timeout 900 cargo test -q --workspace --no-fail-fast) \
    >"$work/$name.log" 2>&1; then
    echo "$name: survived"
    survived=$((survived + 1))
  else
    # The tests that failed, or why none ran.
    why=$(grep -oE '^---- [^ ]+' "$work/$name.log" | cut -c6- | head -3 | paste -sd, - || true)
    if grep -q '^memory allocation of [0-9]* bytes failed' "$work/$name.log"; then
      why="out of memory"
    fi
    echo "$name: killed (${why:-no test ran: build failure or timeout})"
    killed=$((killed + 1))
  fi
  git apply -R "$p"
done
echo "score: $killed killed, $survived survived, $broken do not apply"
[ "$broken" -eq 0 ] && [ "$survived" -eq 0 ]
