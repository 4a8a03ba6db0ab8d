#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to
# benchmark/main.exe (see the header of benchmark/main.ml):
#
#   bash benchmark/run.sh --workload seed-boot --seed 1 --seconds 15 --trace 0
#
# Run from the root of a full checkout.  Build output stays in ./_build.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "benchmark/run.sh: run from the root of a full checkout (no dune-project or lib/ here)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe "$@"
