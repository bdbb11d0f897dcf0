#!/usr/bin/env bash
# Fail if any trace event kind defined in src/obs/TraceEvent.h is not
# documented in docs/TELEMETRY.md.  Run from anywhere in the repo.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
HEADER="$ROOT/src/obs/TraceEvent.h"
DOC="$ROOT/docs/TELEMETRY.md"

if [ ! -f "$HEADER" ] || [ ! -f "$DOC" ]; then
  echo "check_telemetry_docs: missing $HEADER or $DOC" >&2
  exit 1
fi

# Extract every wire name from the X-macro:  X(EnumName, "wire.name")
names=$(sed -n 's/^ *X([A-Za-z0-9_]*, *"\([^"]*\)").*/\1/p' "$HEADER")
if [ -z "$names" ]; then
  echo "check_telemetry_docs: no event kinds parsed from $HEADER" >&2
  exit 1
fi

missing=0
count=0
for name in $names; do
  count=$((count + 1))
  if ! grep -qF "\`$name\`" "$DOC"; then
    echo "check_telemetry_docs: event '$name' is not documented in docs/TELEMETRY.md" >&2
    missing=1
  fi
done

# Serving-layer coverage: every cache.* counter the execution context
# registers must be documented too.
SERVING_CTX="$ROOT/src/dbt/ExecutionContext.cpp"
extra=$(sed -n 's/.*addCounter("\(cache\.[a-z_]*\)".*/\1/p' "$SERVING_CTX")
if [ -z "$extra" ]; then
  echo "check_telemetry_docs: no cache.* counters registered in $SERVING_CTX; point SERVING_CTX at the file that registers them" >&2
  exit 1
fi
for name in $extra; do
  count=$((count + 1))
  if ! grep -qF "\`$name\`" "$DOC"; then
    echo "check_telemetry_docs: cache counter '$name' is not documented in docs/TELEMETRY.md" >&2
    missing=1
  fi
done

if [ "$missing" -ne 0 ]; then
  echo "check_telemetry_docs: FAILED — add the missing events/metrics to the catalog" >&2
  exit 1
fi
echo "check_telemetry_docs: OK ($count event kinds and cache counters all documented)"
