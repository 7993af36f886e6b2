#!/bin/sh
# Build the benchmark from source in this checkout, then run it:
#   sh perfbench/run.sh --workload s1_cold --seed 1 --seconds 20 --trace 0
# Build output goes to stderr so the last stdout line is the result.
set -e
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
