#!/usr/bin/env bash
# Builds perf.exe from the sources in this checkout, then runs it with the
# given arguments, e.g.
#   bash bench/perf/bench.sh --workload t1-mitre5 --seed 0 --seconds 30 --trace 0
# Build output goes to stderr, so the last line of standard output is
# perf.exe's own.  Without the repository's sources the build fails and
# so does this script.
set -euo pipefail
cd "$(dirname "$0")/../.."
DUNE_CACHE=disabled dune build --root . ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
