#!/usr/bin/env bash
# The repo's benchmark, one command:
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
#
# Builds the harness (a package of its own; the root manifest is not
# touched) and runs it. Without --workload, every workload runs in its
# own child process and benchmark/out/latest.json collects the lot.
# With --workload (what the driver passes), the last line of standard
# output is the result object. See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# A driver sets CARGO_TARGET_DIR (relative to the checkout root, which is
# where we are); otherwise share the repository's own target directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
export YASMIN_BENCH_DIR="$here"
export YASMIN_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export YASMIN_BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"

# Build output goes to stderr: standard output belongs to the results.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/yasmin-benchmark" "$@"
