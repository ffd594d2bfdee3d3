#!/usr/bin/env bash
# Build the crowdbench executable in the release profile and run it.
# Usage: bash crowdbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the result summary.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --profile release ./crowdbench/main.exe 1>&2
exec ./_build/default/crowdbench/main.exe "$@"
