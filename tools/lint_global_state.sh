#!/usr/bin/env sh
# Guard against process-global mutable cache state creeping back into
# the synthesis core. PR "session" moved every cache and counter table
# in lib/core and lib/sched into Session-owned state; the only global
# mutability still allowed there is metrics registry handles (counters
# and gauges of Hsyn_obs.Metrics, made once at module initialization).
#
# Fails if a top-level binding in lib/core/*.ml or lib/sched/*.ml
# allocates a ref cell, hash table, queue, or mutex. State like that
# belongs in Session (or a record threaded from it).
#
# Usage: tools/lint_global_state.sh [repo-root]

set -eu
root=${1:-$(dirname "$0")/..}
cd "$root"

pattern='^let [a-zA-Z_0-9]* *\(: *[^=]*\)\? *= *\(ref \|Hashtbl\.create\|Queue\.create\|Mutex\.create\|Buffer\.create\)'

offenders=$(grep -n "$pattern" lib/core/*.ml lib/sched/*.ml 2>/dev/null || true)

if [ -n "$offenders" ]; then
  echo "lint_global_state: top-level mutable state found in lib/core or lib/sched:" >&2
  echo "$offenders" >&2
  echo "" >&2
  echo "Move this state into Hsyn_core.Session (engines/passes borrow from the" >&2
  echo "session they run under) or thread it explicitly. Global caches defeat" >&2
  echo "session isolation and reintroduce cross-run races." >&2
  exit 1
fi

echo "lint_global_state: ok (no top-level mutable state in lib/core or lib/sched)"
