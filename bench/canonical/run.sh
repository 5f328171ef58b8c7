#!/usr/bin/env bash
# Builds the canonical benchmark from source and runs it with the given
# arguments.  Run from the root of a source checkout:
#
#   bash bench/canonical/run.sh --workload plain_large --seed 0 --seconds 15 --trace 0
#
# Build output goes to stderr, so the benchmark's last stdout line stays
# its result.
set -euo pipefail
if [[ ! -f dune-project || ! -d lib ]]; then
  echo "fbp-bench: run from the root of an fbp source checkout" >&2
  exit 2
fi
dune build --root . ./bench/canonical/fbp_bench.exe >&2
exec ./_build/default/bench/canonical/fbp_bench.exe "$@"
