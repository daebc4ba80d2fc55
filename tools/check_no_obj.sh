#!/bin/sh
# Source-level lint: no Obj and no Marshal in the engine.
#
# Obj.repr, Obj.obj and Obj.magic step outside the type system, and so
# does Marshal: unmarshalling bytes that another build wrote yields
# ill-typed values, not an error.  Every structure in lib/ and bin/ is
# typed (a cache keyed by a value's physical identity compares it with
# ==), every record that becomes bytes goes through Row_codec (whose
# decoder raises a structured Storage error on corrupt input), and this
# script fails the build on any use of Obj or Marshal there.
#
# Usage: tools/check_no_obj.sh   (from the repository root)

set -eu

cd "$(dirname "$0")/.."

hits=$(grep -rnE '\b(Obj|Marshal)\.' lib bin --include='*.ml' --include='*.mli' || true)

if [ -n "$hits" ]; then
  echo "Obj lint: Obj or Marshal used in lib/ or bin/:" >&2
  echo "$hits" >&2
  echo "use a typed structure (key a cache by the value's physical identity with ==)," >&2
  echo "and turn records into bytes with Row_codec." >&2
  exit 1
fi
echo "Obj lint: OK (no Obj or Marshal in lib/ or bin/)"
