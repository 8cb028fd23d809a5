"""Diff the stateful sharded tier's round counts against the committed
reference.

The perf-trajectory gate: ``BENCH_e6_scale_reference.json`` pins the
*deterministic* columns of the stateful tier — rounds, per-region
boundary steps, frames relayed, events, enrollments, and the RIB
fingerprint — on the dense and sparse 10×3 plants.  Unlike wall-clock numbers these are identical on every
machine, so CI can hard-diff them: an unintended change to grant
computation, relay order, or workload construction shows up as a
mismatch here before it shows up as a silent perf regression.

Usage::

    PYTHONPATH=src python benchmarks/check_e6_scale_reference.py
    PYTHONPATH=src python benchmarks/check_e6_scale_reference.py --update

``--update`` rewrites the reference from the current build — only do
that for a *deliberate* round-rule change, and say so in the commit
message (the same discipline as the golden trace fingerprints).
"""

from __future__ import annotations

import json
import os
import sys

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "BENCH_e6_scale_reference.json")

#: The columns a row is keyed by (inputs) and compared by (outputs).
#: ``table_rows`` / ``lsas_received`` joined the deterministic set with
#: bench schema v2: they pin the aggregate routing state (LSDB and
#: forwarding tables), independent of how the rounds are cut.
#: ``grants`` / ``relay_batches`` — grant computations and non-empty
#: relay deliveries — are scheduling-independent in every mode (the
#: barrier loop consumes replies in region order).  Wall-clock keys
#: stay deliberately excluded.
KEY_FIELDS = ("config", "regions", "hosts_per_region", "shards", "sparse")
CHECK_FIELDS = ("rounds", "grants", "region_steps", "frames_relayed",
                "relay_batches", "events", "enrolled", "table_rows",
                "lsas_received", "rib_sha256")


def measure(reference_row):
    """Re-run one reference configuration and project its row onto the
    reference schema (inline mode: round counts are mode-invariant, and
    the checker must run in CI without spawning worker fleets)."""
    from repro.experiments.e6_scalability import run_stateful_scale
    row = run_stateful_scale(
        reference_row["regions"], reference_row["hosts_per_region"],
        shards=reference_row["shards"], seed=1, mode="inline",
        sparse=reference_row["sparse"])
    measured = {field: reference_row[field] for field in KEY_FIELDS}
    measured.update({field: row[field] for field in CHECK_FIELDS})
    return measured


def main(argv) -> int:
    update = "--update" in argv
    with open(REFERENCE_PATH) as handle:
        reference = json.load(handle)
    failures = []
    measured_rows = []
    for reference_row in reference["rows"]:
        measured = measure(reference_row)
        measured_rows.append(measured)
        label = " ".join(str(reference_row[field]) for field in KEY_FIELDS)
        # .get: a field added to CHECK_FIELDS diffs as absent-vs-value
        # until the reference is regenerated, instead of crashing
        diffs = [
            f"{field}: reference {reference_row.get(field)!r} "
            f"!= measured {measured[field]!r}"
            for field in CHECK_FIELDS
            if measured[field] != reference_row.get(field)]
        if diffs:
            failures.append((label, diffs))
            print(f"MISMATCH  {label}")
            for diff in diffs:
                print(f"          {diff}")
        else:
            print(f"ok        {label}: rounds={measured['rounds']} "
                  f"region_steps={measured['region_steps']}")
    if update:
        reference["rows"] = measured_rows
        with open(REFERENCE_PATH, "w") as handle:
            json.dump(reference, handle, indent=2)
            handle.write("\n")
        print(f"reference rewritten: {REFERENCE_PATH}")
        return 0
    if failures:
        print(f"\n{len(failures)} configuration(s) diverged from "
              f"{os.path.basename(REFERENCE_PATH)} — if the "
              f"change is deliberate, regenerate with --update and say "
              f"so in the commit message", file=sys.stderr)
        return 1
    print("\nall round counts match the committed reference")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
