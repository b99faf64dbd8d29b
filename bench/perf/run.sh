#!/usr/bin/env bash
# Build the whole-run benchmark from source in this checkout, then run
# it.  Every argument goes to bench/perf/main.exe (see README.md), e.g.
#   bash bench/perf/run.sh --workload pilot_int_lossy --seed 1 --seconds 15 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/../.." && pwd)"
if [ ! -f "$root/dune-project" ]; then
  echo "run.sh: no dune-project in $root: run from a full checkout of the repository" >&2
  exit 2
fi
cd "$root"
# Keep every build output in the checkout: the shared dune cache lives
# outside it, and the compilers write their temporary files to TMPDIR.
export TMPDIR="$root/_build/tmp"
mkdir -p "$TMPDIR"
DUNE_CACHE=disabled dune build --root . bench/perf/main.exe >&2
exec "$root/_build/default/bench/perf/main.exe" "$@"
