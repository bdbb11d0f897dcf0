#!/usr/bin/env bash
# Refactor acceptance test: the fixed-seed bench suite's stdout must be
# byte-identical before and after a change that claims to keep modeled
# behaviour.  Builds <base-ref> (exported with `git archive`, so the
# repository's .git is never touched) and the working tree, both
# Release, runs each bench below on both builds, and diffs their stdout,
# the translation-cache artifact serving_throughput saves
# (serving_cache.bin: the on-disk cache must stay byte-identical when
# the code that produces translations changes) and trace_inspect's
# trace_demo.jsonl and trace_demo.metrics.json.
# Stderr (wall-clock advisories) is kept out of the diff.  Exits nonzero
# on any difference or if a bench cannot be built.
#
# Not a CI gate: a change that alters modeled behaviour on purpose is
# expected to change these outputs.
#
# usage: tools/check_bench_identity.sh <base-ref>
#   WORKDIR=DIR     build and run in DIR (kept afterwards) instead of a
#                   fresh temporary directory (removed afterwards)
#   BUILD_JOBS=N    parallel build jobs (default: nproc)
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi
BASE_REF="$1"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${BUILD_JOBS:-$(nproc)}"

if [ -n "${WORKDIR:-}" ]; then
  WORK="$WORKDIR"
  mkdir -p "$WORK"
else
  WORK="$(mktemp -d)"
  trap 'rm -rf "$WORK"' EXIT
fi

BENCHES=(fig16_overall ablation_dispatch ablation_fusion ablation_aot
         ablation_smc ablation_adaptive ablation_mv_granularity
         serving_throughput)
# Each bench's arguments; every run adds --jobs 4.
declare -A ARGS=(
  [fig16_overall]="--refs 60000"
  [ablation_dispatch]="--refs 60000"
  [ablation_fusion]="--refs 60000"
  [ablation_aot]="--refs 60000"
  [ablation_smc]=""
  [ablation_adaptive]=""
  [ablation_mv_granularity]=""
  [serving_throughput]="--requests 120 --cache-file serving_cache.bin"
)

# build SIDE SRC: configure and build SRC into $WORK/SIDE/build.
build() {
  local side="$1" src="$2"
  echo "== building $side ($src)" >&2
  cmake -S "$src" -B "$WORK/$side/build" -DCMAKE_BUILD_TYPE=Release \
    > "$WORK/$side/configure.log" 2>&1
  cmake --build "$WORK/$side/build" -j"$JOBS" \
    --target "${BENCHES[@]}" trace_inspect > "$WORK/$side/build.log" 2>&1 ||
    { echo "build of $side failed; see $WORK/$side/build.log" >&2; exit 1; }
}

# run SIDE: run every bench and the trace demo, outputs under $WORK/SIDE/out.
run() {
  local side="$1" bin="$WORK/$1/build"
  local out="$WORK/$side/out"
  mkdir -p "$out"
  for b in "${BENCHES[@]}"; do
    echo "== $side: $b ${ARGS[$b]} --jobs 4" >&2
    local rc=0
    # shellcheck disable=SC2086  # ARGS entries are word lists
    (cd "$out" && "$bin/bench/$b" ${ARGS[$b]} --jobs 4 \
      > "$b.txt" 2> "$b.err") || rc=$?
    echo "exit status: $rc" >> "$out/$b.txt"
  done
  echo "== $side: trace_inspect" >&2
  (cd "$out" && "$bin/examples/trace_inspect" > trace_inspect.out 2>&1)
}

rm -rf "$WORK/base/src"
mkdir -p "$WORK/base/src" "$WORK/head"
git -C "$ROOT" archive "$BASE_REF" | tar -x -C "$WORK/base/src"
build base "$WORK/base/src"
build head "$ROOT"
run base
run head

status=0
for f in "${BENCHES[@]/%/.txt}" serving_cache.bin trace_demo.jsonl \
  trace_demo.metrics.json; do
  if cmp -s "$WORK/base/out/$f" "$WORK/head/out/$f"; then
    echo "identical: $f"
  else
    echo "DIFFERS:   $f"
    diff -u "$WORK/base/out/$f" "$WORK/head/out/$f" | head -40 || true
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "check_bench_identity: no differences against $BASE_REF"
else
  echo "check_bench_identity: outputs differ from $BASE_REF" >&2
fi
exit "$status"
