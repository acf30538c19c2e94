#!/usr/bin/env bash
# Runs one package's tests under name filters, refusing any filter that
# selects no test: a stale filter would otherwise pass with nothing run.
#
# Usage: selected-tests.sh PACKAGE TARGET FILTER...
#   TARGET is `lib` for the package's unit tests, or the name of one of its
#   integration-test files (`properties` for tests/properties.rs).
set -euo pipefail
pkg=$1
target=$2
shift 2
if [ "$target" = lib ]; then
  sel=(--lib)
else
  sel=(--test "$target")
fi
for f in "$@"; do
  n=$(cargo test -q -p "$pkg" "${sel[@]}" -- --list "$f" | grep -c ': test$' || true)
  [ "$n" -gt 0 ] || { echo "filter '$f' selects no $pkg $target test" >&2; exit 1; }
done
cargo test -q -p "$pkg" "${sel[@]}" -- "$@"
