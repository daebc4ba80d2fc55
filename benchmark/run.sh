#!/usr/bin/env bash
# Builds the benchmark (sb_bench.exe) from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload oltp|adhoc|analytic --seed N \
#     --seconds S --trace 0|1
#
# Build output goes to stderr, so sb_bench's last line on stdout stays
# its JSON result.  The dune cache is off, so the build writes nothing
# outside the checkout.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f benchmark/dune ]; then
  echo "run.sh: run from the root of a full checkout (no dune-project, lib/ or benchmark/dune here)" >&2
  exit 2
fi

dune build --root . --cache=disabled --profile release ./benchmark/sb_bench.exe >&2
exec ./_build/default/benchmark/sb_bench.exe "$@"
