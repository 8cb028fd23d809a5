"""The benchmark's contract, checked without running it (tier-1 collects
this file; it starts no process and takes well under a second).

``BENCHMARK.json`` must be what ``perf/tables.py`` declares and stay
inside the driver's limits; the helpers every reported number passes
through (percentile rule, layer bucketing, digest, ``--compare``) are
pinned on synthetic input.
"""

import glob
import importlib.util
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load(name):
    """perf/ is a directory of scripts, not a package: load by path."""
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    spec = importlib.util.spec_from_file_location(
        f"perf_{name}", os.path.join(HERE, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")
tables = _load("tables")
probes = _load("probes")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class TestManifest:
    def test_is_what_the_tables_declare(self, manifest):
        assert manifest == tables.manifest()

    def test_keys_and_limits(self, manifest):
        assert set(manifest) == {"command", "paths", "run_seconds",
                                 "workloads", "end_to_end", "per_layer"}
        assert manifest["paths"] == ["perf"]
        assert manifest["command"] == ["python3", "perf/run.py"]
        assert 1 <= manifest["run_seconds"] <= 60
        assert 2 <= len(manifest["workloads"]) <= 8
        assert 1 <= len(manifest["end_to_end"]) <= 16
        assert 1 <= len(manifest["per_layer"]) <= 128
        assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) < 65536

    def test_names_units_and_bounds(self, manifest):
        names = []
        for workload in manifest["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
            names.append(workload["name"])
        for metric in manifest["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
            names.append(metric["name"])
        for metric in manifest["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
            names.append(metric["name"])
        for metric in manifest["end_to_end"] + manifest["per_layer"]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")
        assert all(NAME.match(name) for name in names)
        assert len(set(names)) == len(names)
        setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
        assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                          "bound": max(m["bound"]
                                       for m in manifest["end_to_end"])}]

    def test_every_layer_has_its_two_metrics(self):
        declared = {name for name, *_ in tables.PER_LAYER}
        for layer in tables.LAYERS:
            assert {f"{layer}.self_share", f"{layer}.calls"} <= declared

    def test_run_py_names_every_metric_it_prints(self):
        res = run.new_result("flood", 0, 1.0, 1)
        res["metrics"] = {name: 0.0 for name, *_ in tables.PER_LAYER}
        printed = json.loads(run.result_line(res))
        assert set(printed) == {"correct", "attempted", "failed", "metrics"}
        assert set(printed["metrics"]) == {n for n, *_ in tables.PER_LAYER}
        assert all(set(v) == {"value", "unit"}
                   for v in printed["metrics"].values())

    def test_probe_names_are_declared(self):
        probed = [name for _probe, names in probes.PROBE_GROUPS
                  for name in names]
        assert sorted(probed) == sorted(tables.PROBES)

    def test_one_test_file_only(self):
        found = glob.glob(os.path.join(HERE, "**", "test_*.py"),
                          recursive=True)
        assert [os.path.basename(path) for path in found] == \
            ["test_perf_contract.py"]


class TestPercentileRule:
    @pytest.mark.parametrize("samples,expected", [
        (39, None), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
        (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)])
    def test_highest_percentile_with_ten_samples_beyond(self, samples,
                                                        expected):
        assert tables.highest_percentile(samples) == expected

    def test_nearest_rank(self):
        ordered = list(range(1, 101))
        assert tables.percentile(ordered, 50) == 50
        assert tables.percentile(ordered, 99) == 99
        assert tables.percentile(ordered, 100) == 100
        assert tables.percentile([7.0], 99) == 7.0
        with pytest.raises(ValueError):
            tables.percentile([], 50)

    def test_spread_is_the_drivers(self):
        import statistics
        values = [1.0, 1.1, 1.2, 1.3, 1.5, 1.6, 1.9, 2.0, 2.1, 2.5]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        assert tables.spread(values) == pytest.approx((q3 - q1) / q2)
        assert tables.spread([3.0]) == 0.0


class TestLayerBucketing:
    @pytest.mark.parametrize("path,layer", [
        ("/x/src/repro/sim/engine.py", "sim.engine"),
        ("/x/src/repro/sim/rng.py", "sim.other"),
        ("/x/src/repro/core/efcp.py", "core.efcp"),
        ("/x/src/repro/core/qos.py", "core.other"),
        ("/x/src/repro/core/brand_new.py", "core.other"),
        ("/x/src/repro/apps/echo.py", "apps"),
        ("/x/src/repro/baselines/tcp.py", "baselines"),
        ("/x/src/repro/shard/plan.py", "shard.other"),
        ("/x/src/repro/gateway/wire.py", "gateway.wire"),
        ("/x/src/repro/gateway/cli.py", "gateway.other"),
        ("/x/src/repro/sweeps/runner.py", "repro.other"),
        ("/x/src/repro/__main__.py", "repro.other"),
        ("/usr/lib/python3.11/heapq.py", "python.other"),
        ("~", "python.other"),
        ("<frozen importlib._bootstrap>", "python.other")])
    def test_layer_of(self, path, layer):
        assert tables.layer_of(path) == layer
        assert layer in tables.LAYERS

    def test_bucket_profile_self_time_and_entering_calls(self):
        engine = ("/r/src/repro/sim/engine.py", 10, "run")
        helper = ("/r/src/repro/sim/engine.py", 90, "_pop")
        link = ("/r/src/repro/sim/link.py", 20, "transmit")
        heap = ("~", 0, "<built-in method _heapq.heappop>")
        stats = {
            # (cc, nc, tt, ct, callers{caller: (nc, cc, tt, ct)})
            engine: (1, 1, 2.0, 10.0, {}),                  # profiler root
            helper: (50, 50, 1.0, 1.5, {engine: (50, 50, 1.0, 1.5)}),
            link: (30, 30, 4.0, 4.0, {engine: (30, 30, 4.0, 4.0)}),
            heap: (50, 50, 0.5, 0.5, {helper: (50, 50, 0.5, 0.5)}),
        }
        out = tables.bucket_profile(stats)
        assert out["sim.engine"] == {"self_s": 3.0, "calls": 1}
        assert out["sim.link"] == {"self_s": 4.0, "calls": 30}
        assert out["python.other"] == {"self_s": 0.5, "calls": 50}
        assert out["core.efcp"] == {"self_s": 0.0, "calls": 0}
        metrics = {}
        run.fill_layer_metrics(metrics, out)
        assert metrics["sim.link.self_share"] == pytest.approx(4.0 / 7.5)
        assert sum(v for k, v in metrics.items()
                   if k.endswith(".self_share")) == pytest.approx(1.0)


class TestDigest:
    def test_rows_hash_by_content_not_key_order(self):
        assert tables.digest({"a": 1, "b": [1, 2]}) == \
            tables.digest({"b": [1, 2], "a": 1})
        assert tables.digest({"a": 1}) != tables.digest({"a": 2})

    def test_text_and_bytes_agree(self):
        assert tables.digest("trace\n") == tables.digest(b"trace\n")
        assert len(tables.digest("x")) == 64

    def test_combined_digest_depends_on_order(self):
        assert tables.combined_digest(["a", "b"]) != \
            tables.combined_digest(["b", "a"])


def _recorded(path, walls, failed=0):
    runs = [{"workload": "flood", "trace": 0, "attempted": 100,
             "failed": failed,
             "metrics": {"wall_s": wall, "cpu_s": wall, "peak_rss_mb": 60.0,
                         "setup_s": 0.3}} for wall in walls]
    with open(path, "w") as handle:
        json.dump({"environment": {}, "runs": runs}, handle)
    return str(path)


class TestCompare:
    def test_verdicts(self):
        steady = [1.00, 1.01, 1.02]
        assert run.verdict(steady, [1.03, 1.04, 1.05], "lower", 0.10)[0] == "ok"
        word, change = run.verdict(steady, [1.30, 1.31, 1.32], "lower", 0.10)
        assert word == "worse" and change == pytest.approx(0.30 / 1.01)
        # B's own spread is wider than the bound: cannot tell
        assert run.verdict(steady, [0.9, 1.2, 1.5], "lower",
                           0.10)[0] == "unresolved"
        # ... unless every B run beats every A run
        assert run.verdict([2.0, 2.5, 3.0], [1.0, 1.1, 1.2], "lower",
                           0.10)[0] == "ok"
        # higher-is-better flips the sign of "worse"
        assert run.verdict([100, 101, 102], [80, 81, 82], "higher",
                           0.10)[0] == "worse"
        assert run.verdict([100, 101, 102], [120, 121, 122], "higher",
                           0.10)[0] == "ok"

    def test_exit_codes(self, tmp_path, capsys):
        base = _recorded(tmp_path / "a.json", [1.00, 1.01, 1.02])
        same = _recorded(tmp_path / "b.json", [1.01, 1.00, 1.03])
        slow = _recorded(tmp_path / "c.json", [1.40, 1.41, 1.42])
        flaky = _recorded(tmp_path / "d.json", [1.00, 1.01, 1.02], failed=1)
        assert run.compare(base, same) == 0
        assert "unresolved" not in capsys.readouterr().out
        assert run.compare(base, slow) == 1
        assert "worse" in capsys.readouterr().out
        assert run.compare(base, flaky) == 1
        assert "failed share rose" in capsys.readouterr().out
