#!/usr/bin/env bash
# A/A: the full benchmark RUNS times (default 10: with fewer, a quartile
# is a single run) on one build; prints
# min / median / max and the interquartile spread of every end-to-end
# metric and fails if a spread exceeds the metric's bound.
#
#   benchmark/aa.sh [RUNS] [--seed N] [--seconds S]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs=10
if [[ "${1:-}" =~ ^[0-9]+$ ]]; then
    runs="$1"
    shift
fi
exec "$here/run.sh" --aa "$runs" "$@"
