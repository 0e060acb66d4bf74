#!/bin/sh
# Build the benchmark harness from this checkout's sources and run it.
#   sh perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build products go to .bench_build; generated inputs, heartbeat rows and
# Perfetto traces go to .bench_work. Both stay inside the checkout. The
# harness runs as one process on one domain.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a resa checkout (dune-project and lib/ not found)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --profile release --build-dir .bench_build ./perfbench/main.exe >&2
exec env RESA_DOMAINS=1 .bench_build/default/perfbench/main.exe "$@"
