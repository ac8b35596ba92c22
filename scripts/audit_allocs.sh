#!/usr/bin/env bash
# Audit-build allocation gate: with -DDREDBOX_AUDIT=ON every contract and
# deep invariant is armed, and a steady-state remote read must still not
# touch the heap. Runs BM_RemoteReadSteadyStateAllocs from BUILD_DIR's
# micro_benchmarks and fails unless it reports allocs_per_op == 0.
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

"$bench" --benchmark_filter='^BM_RemoteReadSteadyStateAllocs$' --benchmark_format=json |
  python3 -c '
import json, sys
rows = [b for b in json.load(sys.stdin)["benchmarks"]
        if b["name"] == "BM_RemoteReadSteadyStateAllocs"]
if len(rows) != 1 or "allocs_per_op" not in rows[0]:
    sys.exit("audit-allocs: BM_RemoteReadSteadyStateAllocs reported no allocs_per_op")
allocs = rows[0]["allocs_per_op"]
print("audit-allocs: BM_RemoteReadSteadyStateAllocs allocs_per_op=%g" % allocs)
if allocs != 0:
    sys.exit("audit-allocs: a steady-state remote read allocates in the audit build")
'
