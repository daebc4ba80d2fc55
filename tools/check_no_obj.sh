#!/bin/sh
# Source-level lint: no Obj in the engine.
#
# Obj.repr, Obj.obj and Obj.magic step outside the type system.  Every
# structure in lib/ and bin/ is typed (a cache keyed by a value's
# physical identity compares it with ==), and this script fails the
# build on any use of Obj there.
#
# Usage: tools/check_no_obj.sh   (from the repository root)

set -eu

cd "$(dirname "$0")/.."

hits=$(grep -rn '\bObj\.' lib bin --include='*.ml' --include='*.mli' || true)

if [ -n "$hits" ]; then
  echo "Obj lint: Obj used in lib/ or bin/:" >&2
  echo "$hits" >&2
  echo "use a typed structure (key a cache by the value's physical identity with ==)." >&2
  exit 1
fi
echo "Obj lint: OK (no Obj in lib/ or bin/)"
