#!/usr/bin/env sh
# Guard against process-global mutable cache state creeping back into
# the synthesis core. Every cache and counter table in lib/core and
# lib/sched is Session-owned state, the evaluation layer's memo tables
# (Power.memo, Area.memo in lib/eval) are records an engine creates and
# drops, and what lib/rtl and lib/dfg derive from a graph is part of
# the graph (its index, built once by Dfg.Builder.finish); the only
# global mutability still allowed there is metrics registry handles and
# span probes, made once at module initialization.
#
# Fails if a top-level binding in lib/core, lib/sched, lib/eval, lib/rtl
# or lib/dfg allocates a ref cell, hash table, queue, mutex or buffer,
# or makes a domain-local key (Domain.DLS.new_key, also on the lines
# after the binding's name): a per-domain memo is global state too.
# State like that belongs in Session (or a record threaded from it).
#
# Usage: tools/lint_global_state.sh [repo-root]

set -eu
root=${1:-$(dirname "$0")/..}
cd "$root"

files=$(ls lib/core/*.ml lib/sched/*.ml lib/eval/*.ml lib/rtl/*.ml lib/dfg/*.ml)

pattern='^let [a-zA-Z_0-9]* *\(: *[^=]*\)\? *= *\(ref \|Hashtbl\.create\|Queue\.create\|Mutex\.create\|Buffer\.create\)'

# a value binding ([let name =] or [let name : type =], no parameters)
# runs until the next line that starts in column 0
dls_offenders=$(awk '
  /^[^ \t]/ { value = ($0 ~ /^let [a-z_][a-zA-Z_0-9]* *(:[^=]*)?=/) }
  value && /Domain\.DLS\.new_key/ { print FILENAME ":" FNR ":" $0 }
' $files)

# shellcheck disable=SC2086
offenders=$(grep -n "$pattern" $files 2>/dev/null || true)
offenders=$(printf '%s\n%s' "$offenders" "$dls_offenders" | sed '/^$/d')

if [ -n "$offenders" ]; then
  echo "lint_global_state: top-level mutable state found in lib/core, lib/sched, lib/eval, lib/rtl or lib/dfg:" >&2
  echo "$offenders" >&2
  echo "" >&2
  echo "Move this state into Hsyn_core.Session (engines/passes borrow from the" >&2
  echo "session they run under) or thread it explicitly. Global caches defeat" >&2
  echo "session isolation and reintroduce cross-run races." >&2
  exit 1
fi

echo "lint_global_state: ok (no top-level mutable state in lib/core, lib/sched, lib/eval, lib/rtl or lib/dfg)"
