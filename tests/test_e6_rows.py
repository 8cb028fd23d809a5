"""Whole-row pins for every E6 row shape.

Each case runs one E6 row at a small size and compares the SHA-256 of
its deterministic part (:func:`repro.sweeps.stable_row`, serialized in
key order, so column order is pinned too) with a constant.  The flat
and recursive stacks, the RIP baseline, the scale rows and both
sharded tiers at one and two shards are covered; a mismatch means a
refactor changed what a row says, not just how it is built.
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
        "2a5773b5eadbcc785a296e7af2f52e853a28428cb4e6fcdb7061f4209707dc0a"),
    "scale-recursive-5x10": (
        lambda: e6.run_scale("recursive", 5, 10),
        "083f7e4f12f7a86b08c86ade7dc8b0a296aa5947ac33fe2aaddb6e3ad0bae38b"),
    "flood-3x2-x1": (
        lambda: e6.run_flood_scale(3, 2, shards=1),
        "ba4207138b325bf0f491a7f4b4d3eaa9c1f1095e48661803e6c67d40a776bb60"),
    "flood-3x2-x2": (
        lambda: e6.run_flood_scale(3, 2, shards=2),
        "678d89a7a95ae9735ae6c996ae68607bf464caf037a83acaca820547eaeec7b9"),
    "stateful-3x2-x1": (
        lambda: e6.run_stateful_scale(3, 2, shards=1),
        "b7ec2a719436bbce98bae13eb5d34672045eec9803bea96093c1d42e36e6ca90"),
    "stateful-3x2-x2": (
        lambda: e6.run_stateful_scale(3, 2, shards=2),
        "8e78a482f0638ebe516dc1515aaf65f3cf52effa3fe3abb9e95e30f529909de3"),
}


@pytest.mark.parametrize("case", list(ROW_PINS))
def test_row_matches_pin(case):
    run, expected = ROW_PINS[case]
    row = stable_row(run())
    assert hashlib.sha256(json.dumps(row).encode()).hexdigest() == expected, \
        json.dumps(row)
