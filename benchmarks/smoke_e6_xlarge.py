"""CI smoke for the 100k-system flood tier: build + first flood round.

Builds the xlarge plant (100,001 systems, 100,000 links) in one
process and runs a single announcement to complete flooding — proof
that the slotted, lazily allocating engine core (``sim/`` +
``shard/flood.py``; no ``core/`` runs in this tier) holds a
100k-entity plant in bounded memory and pushes a full flood wave
through it.  The wall-clock cap
lives in the CI step (``timeout``); this script asserts the
*deterministic* outcomes and a memory ceiling.

Usage::

    PYTHONPATH=src python benchmarks/smoke_e6_xlarge.py

Exit 0 when the first wave reached every other system inside the
memory budget.
"""

from __future__ import annotations

import json
import sys

#: Peak-RSS ceiling for build + first wave.  446 MB on the reference
#: box (2 vCPU, CPython 3.11.7) since a clean link schedules one event
#: per frame (457 MB, measured alongside, with a serialization-end
#: event per frame); 617.4 MB while every link made its two transmit
#: deques up front and every flood node a ``set``.  600 MB
#: fails CI on per-entity object-graph creep of that size (eager
#: per-link PRNGs alone were ~250 MB before they became lazy) without
#: flaking on allocator variance.
PEAK_MEM_BUDGET_MB = 600


def main() -> int:
    from repro.experiments.e6_scalability import flood_build_smoke
    row = flood_build_smoke("xlarge")
    print(json.dumps(row, indent=2))
    failures = []
    if row["first_wave_deliveries"] != row["systems"] - 1:
        failures.append(
            f"first wave reached {row['first_wave_deliveries']} of "
            f"{row['systems'] - 1} systems")
    if row["peak_mem_mb"] >= PEAK_MEM_BUDGET_MB:
        failures.append(
            f"peak RSS {row['peak_mem_mb']} MB >= "
            f"{PEAK_MEM_BUDGET_MB} MB budget")
    for failure in failures:
        print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
