#!/usr/bin/env bash
# Run one invariant-checked fuzz replay and require its replay digest.
# The run's output is printed whatever its exit status, so a failing
# run's log still shows the violation and the replay command.
# usage: bash .github/pin-check.sh DIGEST CHECK-ARGS...
set -euo pipefail
want=$1
shift
status=0
out=$(opam exec -- dune exec bin/genie_cli.exe -- check "$@") || status=$?
printf '%s\n' "$out"
if [ "$status" -ne 0 ]; then
  echo "check $*: exit status $status" >&2
  exit "$status"
fi
if ! grep -qx "replay digest: $want" <<<"$out"; then
  echo "check $*: expected replay digest $want" >&2
  exit 1
fi
