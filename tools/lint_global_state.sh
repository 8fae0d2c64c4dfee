#!/usr/bin/env sh
# Guard against process-global mutable cache state creeping back into
# the synthesis core. Every cache and counter table in lib/core and
# lib/sched is Session-owned state, and the evaluation layer's memo
# tables (Power.memo, Area.memo in lib/eval) are records an engine
# creates and drops; the only global mutability still allowed there is
# metrics registry handles and span probes, made once at module
# initialization.
#
# Fails if a top-level binding in lib/core/*.ml, lib/sched/*.ml or
# lib/eval/*.ml allocates a ref cell, hash table, queue, or mutex. State
# like that belongs in Session (or a record threaded from it).
#
# Usage: tools/lint_global_state.sh [repo-root]

set -eu
root=${1:-$(dirname "$0")/..}
cd "$root"

pattern='^let [a-zA-Z_0-9]* *\(: *[^=]*\)\? *= *\(ref \|Hashtbl\.create\|Queue\.create\|Mutex\.create\|Buffer\.create\)'

offenders=$(grep -n "$pattern" lib/core/*.ml lib/sched/*.ml lib/eval/*.ml 2>/dev/null || true)

if [ -n "$offenders" ]; then
  echo "lint_global_state: top-level mutable state found in lib/core, lib/sched or lib/eval:" >&2
  echo "$offenders" >&2
  echo "" >&2
  echo "Move this state into Hsyn_core.Session (engines/passes borrow from the" >&2
  echo "session they run under) or thread it explicitly. Global caches defeat" >&2
  echo "session isolation and reintroduce cross-run races." >&2
  exit 1
fi

echo "lint_global_state: ok (no top-level mutable state in lib/core, lib/sched or lib/eval)"
