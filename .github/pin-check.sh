#!/usr/bin/env bash
# Run one invariant-checked fuzz replay and require its replay digest.
# usage: bash .github/pin-check.sh DIGEST CHECK-ARGS...
set -euo pipefail
want=$1
shift
out=$(opam exec -- dune exec bin/genie_cli.exe -- check "$@")
printf '%s\n' "$out"
if ! grep -qx "replay digest: $want" <<<"$out"; then
  echo "check $*: expected replay digest $want" >&2
  exit 1
fi
