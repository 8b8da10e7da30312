#!/bin/sh
# Build riommu-serve and the end-to-end benchmark from this checkout,
# then run the benchmark with the given arguments. Run from the root of
# the repository, e.g.
#
#   sh bench/e2e/run.sh --workload rpc-b1 --seed 42 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -eu
# keep every build artefact inside the checkout (no shared dune cache)
DUNE_CACHE=disabled
export DUNE_CACHE
dune build --root . @install bench/e2e/riommu_e2e.exe >&2
PATH="$PWD/_build/install/default/bin:$PATH"
export PATH
exec ./_build/default/bench/e2e/riommu_e2e.exe "$@"
