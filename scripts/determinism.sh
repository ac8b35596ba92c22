#!/usr/bin/env bash
# Determinism harness: proves a seeded simulation is bit-reproducible.
#
# Two layers:
#   1. ctest -R Determinism — the in-process double-run test
#      (tests/integration/determinism_test.cpp): same seed => identical
#      metrics/trace digests, different seed => divergent digests.
#   2. Process-level: run the quickstart example twice in separate
#      processes and byte-compare stdout PLUS every exported observability
#      artifact — the Chrome trace JSON, the OpenMetrics series and the
#      dredbox-report/v1 run report. Catches nondeterminism the in-process
#      test cannot see (ASLR-dependent ordering, locale, static-init
#      order) anywhere in the export pipeline, not just on stdout.
#      DREDBOX_PROFILE stays unset: the kernel self-profile is host
#      wall-clock data and legitimately differs between runs.
#      The multi-rack datacenter example gets the same double run, healthy
#      and under a spine fault, with its stdout byte-compared.
#   3. Every other example and every paper bench (bench/fig*, bench/abl*,
#      table1_workloads): run twice, stdout byte-compared. Only
#      examples/sweep is left out: it prints host wall-clock timings.
#
# Usage: scripts/determinism.sh [BUILD_DIR]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

if [[ ! -d "$BUILD_DIR" ]]; then
  echo "determinism: $BUILD_DIR/ missing; run: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 2
fi

echo "== in-process determinism test =="
ctest --test-dir "$BUILD_DIR" -R 'Determinism' --output-on-failure

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

QUICKSTART="$BUILD_DIR/examples/quickstart"
if [[ -x "$QUICKSTART" ]]; then
  echo "== process-level double run (quickstart + artifacts) =="
  quickstart_abs="$(cd "$(dirname "$QUICKSTART")" && pwd)/$(basename "$QUICKSTART")"
  # Relative artifact paths + a per-run cwd keep the two runs' environments
  # (and therefore their stdout, which echoes the paths) byte-identical.
  for run in 1 2; do
    mkdir -p "$tmp/run$run"
    (cd "$tmp/run$run" && \
      DREDBOX_TRACE_FILE=trace.json \
      DREDBOX_OPENMETRICS_FILE=series.om \
      DREDBOX_REPORT_FILE=report.json \
      "$quickstart_abs" > stdout.txt 2>&1)
  done
  status=0
  for artifact in stdout.txt trace.json series.om report.json; do
    if cmp -s "$tmp/run1/$artifact" "$tmp/run2/$artifact"; then
      echo "quickstart $artifact: byte-identical ($(wc -c < "$tmp/run1/$artifact") bytes)"
    else
      echo "quickstart $artifact: runs DIVERGED:" >&2
      diff "$tmp/run1/$artifact" "$tmp/run2/$artifact" | head -40 >&2
      status=1
    fi
  done
  [[ "$status" == 0 ]] || exit 1
else
  echo "== $QUICKSTART not built; skipping process-level check =="
fi

DATACENTER="$BUILD_DIR/examples/datacenter"
if [[ -x "$DATACENTER" ]]; then
  echo "== process-level double run (multi-rack datacenter) =="
  status=0
  for fault in "" "--fault-rack 0 --fault-at-ms 0.3 --fault-for-ms 0.4"; do
    for run in 1 2; do
      # $fault is deliberately unquoted: it is a list of flags.
      "$DATACENTER" --racks 2 --duration-ms 1 $fault > "$tmp/datacenter$run.txt"
    done
    if cmp -s "$tmp/datacenter1.txt" "$tmp/datacenter2.txt"; then
      echo "datacenter ${fault:-(healthy)}: byte-identical"
    else
      echo "datacenter ${fault:-(healthy)}: runs DIVERGED:" >&2
      diff "$tmp/datacenter1.txt" "$tmp/datacenter2.txt" | head -40 >&2
      status=1
    fi
  done
  [[ "$status" == 0 ]] || exit 1
else
  echo "== $DATACENTER not built; skipping multi-rack check =="
fi

echo "== process-level double run (examples + paper benches) =="
status=0
count=0
mkdir -p "$tmp/progs"
for prog in "$BUILD_DIR"/examples/* "$BUILD_DIR"/bench/fig* "$BUILD_DIR"/bench/abl* \
            "$BUILD_DIR"/bench/table1_workloads; do
  [[ -f "$prog" && -x "$prog" ]] || continue
  case "$(basename "$prog")" in sweep | datacenter) continue ;; esac
  prog_abs="$(cd "$(dirname "$prog")" && pwd)/$(basename "$prog")"
  for run in 1 2; do
    (cd "$tmp/progs" && "$prog_abs" > "../prog$run.txt" 2>&1)
  done
  count=$((count + 1))
  if ! cmp -s "$tmp/prog1.txt" "$tmp/prog2.txt"; then
    echo "$(basename "$prog"): runs DIVERGED:" >&2
    diff "$tmp/prog1.txt" "$tmp/prog2.txt" | head -20 >&2
    status=1
  fi
done
[[ "$status" == 0 ]] || exit 1
echo "$count programs: stdout byte-identical"

echo "determinism: OK"
