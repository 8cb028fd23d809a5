"""Whole-row pins for every E6 row shape.

Each case runs one E6 row at a small size and compares the SHA-256 of
its deterministic part (:func:`repro.sweeps.stable_row`, serialized in
key order, so column order is pinned too) with a constant.  The flat
and recursive stacks, the RIP baseline, the scale rows and both
sharded tiers at one and two shards are covered; a mismatch means a
refactor changed what a row says, not just how it is built.

The engine's event count is a cost, not something a row says: the
SHA-256 covers the row without its ``events`` column, which is pinned
apart, exactly, in ``ROW_EVENTS`` (the split of
tests/test_trace_golden.py).
"""

import hashlib
import json

import pytest

from repro.experiments import e6_scalability as e6
from repro.sweeps import stable_row

ROW_PINS = {
    "config-flat-3x4": (
        lambda: e6.run_config("flat", 3, 4),
        "f2fab919617adc8331e48070e28bf0771cfae18e38a735e3c73e65916f22560c"),
    "config-recursive-3x4": (
        lambda: e6.run_config("recursive", 3, 4),
        "002f64171088731f0fd3507a65ed192b9665291e35afea1c5c54711f18f29b23"),
    "config-ip+rip-3x4": (
        lambda: e6.run_config("ip+rip", 3, 4),
        "8890768fef73d66a71bd9885c593fe04e96a433e77c2db4f18c0e14e853bcf18"),
    "scale-flat-5x10": (
        lambda: e6.run_scale("flat", 5, 10),
        "48423f08abf8cc347c1a064f137d88627924ea94a49990fcb103529832cd8460"),
    "scale-recursive-5x10": (
        lambda: e6.run_scale("recursive", 5, 10),
        "faef618812f3f5767b5c91a8e45a164f9f947130afe00d0ec608cb8342ea1e55"),
    "flood-3x2-x1": (
        lambda: e6.run_flood_scale(3, 2, shards=1),
        "4f0f02a16b76ca599e553518fcc9f8ec1288a180b22dbc234bc91526b7aa1c48"),
    "flood-3x2-x2": (
        lambda: e6.run_flood_scale(3, 2, shards=2),
        "c030e750bb3ef07cc38515f19dc1ca1515f30a478ec1d033e40a705e2a22181a"),
    "stateful-3x2-x1": (
        lambda: e6.run_stateful_scale(3, 2, shards=1),
        "b51d415ae8f7623910b0a6829c53b1fa233c995b9d264e58b00ac81aceb35f7d"),
    "stateful-3x2-x2": (
        lambda: e6.run_stateful_scale(3, 2, shards=2),
        "c120446dede2c1ab21880dbd47865944b14f487d024b40ab16c9750a4a657777"),
}

#: case -> the row's ``events`` column (the config rows have none).
#: The RINA rows last moved when flooded copies came to be acked once per
#: port after a delay (10,658 / 5,568 / 366 / 366 before); with them
#: ``stateful-3x2-x2``'s relay columns moved (rounds and grants 91 -> 112,
#: region_steps 126 -> 148, frames_relayed 44 -> 34, relay_batches
#: 42 -> 33, relay_bytes 10,984 -> 9,301), and its SHA with them.
#: They fell again, and only the ``events`` column moved, when FIFO RMT
#: ports stopped pacing (the ``rmt.serve`` events went): 8,404 -> 8,335,
#: 5,403 -> 5,332 and 354 -> 345 (both stateful rows).
#: They fell again by their ``routing.spf`` events when the SPF hold-down
#: became a deadline read at the next table query: 8,335 -> 7,731 (604),
#: 5,332 -> 5,177 (155) and 345 -> 312 (33, both stateful rows).  With
#: fewer instants to step, ``stateful-3x2-x2``'s rounds and grants went
#: 112 -> 103 and its region_steps 148 -> 130, and its SHA with them; its
#: relay columns and ``rib_sha256`` (dfe1ab44ecdba485) held.
ROW_EVENTS = {
    "scale-flat-5x10": 7_731,
    "scale-recursive-5x10": 5_177,
    "flood-3x2-x1": 100,
    "flood-3x2-x2": 100,
    "stateful-3x2-x1": 312,
    "stateful-3x2-x2": 312,
}


@pytest.mark.parametrize("case", list(ROW_PINS))
def test_row_matches_pin(case):
    run, expected = ROW_PINS[case]
    row = dict(stable_row(run()))
    events = row.pop("events", None)
    assert hashlib.sha256(json.dumps(row).encode()).hexdigest() == expected, \
        json.dumps(row)
    assert events == ROW_EVENTS.get(case)
