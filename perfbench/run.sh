#!/usr/bin/env bash
# Entry point: builds the daemon and the benchmark from source, then runs
#   perfbench --workload NAME --seed N --seconds S --trace 0|1
# from the root of a streamtok checkout. See perfbench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bin/streamtok_cli.ml ]; then
  echo "perfbench: $(pwd) is not a streamtok source checkout" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# A build of its own (profile and directory), apart from the repo's _build.
mkdir -p perfbench/_run
build="$PWD/perfbench/_run/build"
dune build --root . --build-dir "$build" --profile perfbench \
  ./bin/streamtok_cli.exe ./perfbench/perfbench.exe 1>&2
exec "$build/default/perfbench/perfbench.exe" "$@"
