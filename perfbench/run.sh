#!/bin/sh
# Build the olar CLI and the benchmark from source, then run the
# benchmark with the given arguments, e.g.
#   sh perfbench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
#   sh perfbench/run.sh --selftest
# Build output and run files (lattices, server logs, spans) go under
# _perfbench/ at the root of the checkout. See perfbench/README.md.
set -eu
cd "$(dirname "$0")/.."
mkdir -p _perfbench
dune build --root . --profile release --build-dir "$(pwd)/_perfbench/build" \
  ./bin/olar_cli.exe ./perfbench/bench.exe 1>&2
exec ./_perfbench/build/default/perfbench/bench.exe \
  --olar ./_perfbench/build/default/bin/olar_cli.exe --work _perfbench "$@"
