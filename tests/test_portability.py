"""Portability and typing regression pins.

Three bug classes this PR fixed must stay fixed:

* a top-level ``import resource`` took the whole experiments package
  down on non-POSIX platforms — the import is now lazy and guarded,
  reporting ``None`` where the platform cannot measure peak RSS;
* ``ru_maxrss`` units differ by platform (kilobytes on Linux, *bytes*
  on macOS) — the divisor follows ``sys.platform``;
* implicit-Optional parameter annotations (``x: str = None``) — the
  whole ``src/`` tree is swept by AST so no new ones appear.

And ``src/`` runs on the standard library alone: no process it starts
imports a third-party package.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _fresh_e6(monkeypatch):
    """Re-import e6_scalability under the current (possibly patched)
    ``resource`` visibility, restoring the original module after."""
    name = "repro.experiments.e6_scalability"
    original = sys.modules.pop(name, None)
    try:
        return importlib.import_module(name)
    finally:
        sys.modules.pop(name, None)
        if original is not None:
            sys.modules[name] = original


class TestPeakMemPortability:
    def test_package_imports_without_resource(self, monkeypatch):
        """Blocking ``resource`` (the non-POSIX condition) must not
        break the import — the regression that motivated the fix."""
        monkeypatch.setitem(sys.modules, "resource", None)
        module = _fresh_e6(monkeypatch)
        assert module._peak_mem_mb() is None

    def test_peak_mem_none_when_resource_missing(self, monkeypatch):
        from repro.experiments.e6_scalability import _peak_mem_mb
        monkeypatch.setitem(sys.modules, "resource", None)
        assert _peak_mem_mb() is None

    def test_none_peak_mem_renders_in_tables(self):
        from repro.experiments.common import format_table
        table = format_table([{"tier": "small", "peak_mem_mb": None}])
        assert "-" in table

    @staticmethod
    def _fake_resource(ru_maxrss):
        fake = types.ModuleType("resource")
        fake.RUSAGE_SELF = 0
        fake.getrusage = lambda who: types.SimpleNamespace(
            ru_maxrss=ru_maxrss)
        return fake

    def test_linux_reports_kilobytes(self, monkeypatch):
        from repro.experiments import e6_scalability
        monkeypatch.setitem(sys.modules, "resource",
                            self._fake_resource(3 * 1024))   # 3 MB in KB
        monkeypatch.setattr(e6_scalability.sys, "platform", "linux")
        assert e6_scalability._peak_mem_mb() == 3.0

    def test_darwin_reports_bytes(self, monkeypatch):
        from repro.experiments import e6_scalability
        monkeypatch.setitem(sys.modules, "resource",
                            self._fake_resource(3 * 1024 * 1024))  # bytes
        monkeypatch.setattr(e6_scalability.sys, "platform", "darwin")
        assert e6_scalability._peak_mem_mb() == 3.0

    def test_real_platform_measures_something(self):
        from repro.experiments.e6_scalability import _peak_mem_mb
        value = _peak_mem_mb()
        if value is not None:   # POSIX: a live process has a footprint
            assert value > 0


class TestHostAddr:
    def test_no_interfaces_is_a_clear_error(self):
        from repro.baselines.sockets import Host
        from repro.sim.network import Network
        network = Network(seed=0)
        host = Host(network.add_node("lonely"))
        with pytest.raises(RuntimeError, match="no interfaces"):
            host.addr()

    def test_named_and_first_interface_still_resolve(self):
        from repro.baselines.sockets import Host
        from repro.baselines.ipnet import ip
        from repro.sim.network import Network
        network = Network(seed=0)
        a, b = network.add_node("a"), network.add_node("b")
        network.connect("a", "b", name="wire")
        host_a, host_b = Host(a), Host(b)
        host_a.ip.add_interface(next(iter(a.interfaces())).name,
                                ip("10.0.0.1"), 24)
        host_b.ip.add_interface(next(iter(b.interfaces())).name,
                                ip("10.0.0.2"), 24)
        assert host_a.addr() == ip("10.0.0.1")
        name = next(iter(host_a.ip.interfaces))
        assert host_a.addr(name) == ip("10.0.0.1")


class TestNoImplicitOptionals:
    """PEP 484 dropped implicit Optional: ``x: str = None`` lies to the
    reader and to type checkers.  Sweep every annotated signature in
    ``src/`` — a ``None`` default requires Optional/Any/None in the
    annotation."""

    @staticmethod
    def _offenders(tree, path):
        found = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for args, defaults in (
                    (node.args.args + node.args.posonlyargs,
                     node.args.defaults),
                    (node.args.kwonlyargs, node.args.kw_defaults)):
                paired = zip(args[len(args) - len(defaults):], defaults) \
                    if defaults is not node.args.kw_defaults \
                    else zip(args, defaults)
                for arg, default in paired:
                    if (default is None or arg.annotation is None
                            or not (isinstance(default, ast.Constant)
                                    and default.value is None)):
                        continue
                    annotation = ast.unparse(arg.annotation)
                    if not any(ok in annotation for ok in
                               ("Optional", "None", "Any", "object")):
                        found.append(f"{path}:{node.lineno} "
                                     f"{node.name}({arg.arg}: {annotation}"
                                     f" = None)")
        return found

    def test_src_tree_is_clean(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            offenders.extend(self._offenders(tree, path.relative_to(SRC)))
        assert offenders == [], "\n".join(offenders)

    def test_sweep_detects_the_original_bug(self):
        """The sweep must actually catch the pattern it guards against
        (the pre-fix ``ifname: str = None`` signature)."""
        tree = ast.parse("def addr(self, ifname: str = None) -> int: ...")
        assert self._offenders(tree, pathlib.Path("x.py"))


#: what the CLI, the benchmark's children and ``gateway serve`` import
ENTRY_MODULES = ("repro.experiments.e6_scalability", "repro.scenarios",
                 "repro.gateway.cli", "repro.__main__")


def _python(code):
    """Run ``code`` in a fresh interpreter on ``src/``; its last stdout
    line, parsed as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestStandardLibraryOnly:
    def test_runs_with_networkx_unimportable(self):
        # None in sys.modules makes every `import networkx` raise
        row = _python(f"""
import importlib, json, sys
sys.modules["networkx"] = None
for name in {ENTRY_MODULES!r}:
    importlib.import_module(name)
from repro.scenarios import CANNED, ScenarioRunner
row = ScenarioRunner(CANNED["e4-multihoming"](), seed=0).run("ip")
print(json.dumps({{"events": row["events"]}}))
""")
        assert row["events"] > 0

    def test_entry_points_import_no_dependency_they_never_use(self):
        loaded = _python(f"""
import importlib, json, sys
import repro.__main__, repro.gateway.server
serve = sorted({{"multiprocessing", "repro.sweeps"}} & set(sys.modules))
import repro.scenarios
rina = "repro.baselines" in sys.modules
for name in {ENTRY_MODULES!r}:
    importlib.import_module(name)
print(json.dumps({{"networkx": "networkx" in sys.modules,
                  "serve": serve, "rina": rina}}))
""")
        assert loaded == {"networkx": False, "serve": [], "rina": False}
