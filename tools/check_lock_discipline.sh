#!/bin/sh
# Source-level lock-discipline lint.
#
# Every lock in the tree must be a named, leveled Sb_conc.Lock /
# Sb_conc.Rwlock, so the discipline checker can see it.  A bare Mutex
# or Condition anywhere else is invisible to the level-ordering, race
# and deadlock analyses — this script fails the build on any such use
# outside lib/conc, where the primitives are wrapped (and where the
# checker's own leaf mutex lives).
#
# Usage: tools/check_lock_discipline.sh   (from the repository root)

set -eu

cd "$(dirname "$0")/.."

status=0
hits=$(grep -rn 'Mutex\.create\|Mutex\.lock\|Condition\.' \
         lib bin test \
         --include='*.ml' --include='*.mli' \
       | grep -v '^lib/conc/' || true)

if [ -n "$hits" ]; then
  echo "lock-discipline lint: raw Mutex/Condition outside lib/conc:" >&2
  echo "$hits" >&2
  echo "use Sb_conc.Lock / Sb_conc.Rwlock (named, leveled) instead." >&2
  status=1
else
  echo "lock-discipline lint: OK (no raw Mutex/Condition outside lib/conc)"
fi

exit $status
