#!/usr/bin/env bash
# Build the benchmark from source, then run one workload:
#
#   bash rrbench/run.sh --workload <storm-ticks|route-explain|tier1-plan> \
#     --seed <n> --seconds <s> --trace <0|1>
#
# The build (dune's _build/), temporary files and trace files all stay
# inside the checkout. Build output goes to stderr, so the last stdout
# line is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export DUNE_CACHE=disabled
export TMPDIR="$root/rrbench/_tmp"
mkdir -p "$TMPDIR"
dune build --root . ./rrbench/main.exe 1>&2
exec ./_build/default/rrbench/main.exe "$@"
