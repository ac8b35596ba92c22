#!/usr/bin/env bash
# Audit-build allocation gate: with -DDREDBOX_AUDIT=ON every contract and
# deep invariant is armed, and neither a steady-state remote read nor a
# steady-state DMA transfer may touch the heap. Runs
# BM_RemoteReadSteadyStateAllocs and BM_DmaSteadyStateAllocs from
# BUILD_DIR's micro_benchmarks and fails unless both report
# allocs_per_op == 0.
#
# Usage: scripts/audit_allocs.sh BUILD_DIR   (a DREDBOX_AUDIT=ON build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:?usage: scripts/audit_allocs.sh BUILD_DIR}"
bench="$BUILD_DIR/bench/micro_benchmarks"
if [[ ! -x "$bench" ]]; then
  echo "audit-allocs: $bench not built (needs google-benchmark)" >&2
  exit 1
fi

"$bench" --benchmark_filter='^BM_(RemoteRead|Dma)SteadyStateAllocs$' --benchmark_format=json |
  python3 -c '
import json, sys
gated = ["BM_RemoteReadSteadyStateAllocs", "BM_DmaSteadyStateAllocs"]
rows = {b["name"]: b for b in json.load(sys.stdin)["benchmarks"]}
failed = False
for name in gated:
    if name not in rows or "allocs_per_op" not in rows[name]:
        sys.exit("audit-allocs: %s reported no allocs_per_op" % name)
    allocs = rows[name]["allocs_per_op"]
    print("audit-allocs: %s allocs_per_op=%g" % (name, allocs))
    if allocs != 0:
        print("audit-allocs: %s allocates in the audit build" % name, file=sys.stderr)
        failed = True
sys.exit(1 if failed else 0)
'
