"""The simulated clock has one writer.

``Engine.now`` is a plain attribute, read on every send, arrival and
timer; a property's call per read was a measured cost.  Nothing but the
engine may write it: a callback that moved the clock would break the
engine's ordering without a trace.  This AST check fails on any store
to an attribute named ``now`` (plain, augmented, annotated, tuple
targets included, or ``setattr(..., "now", ...)``) under ``src/repro``
outside ``sim/engine.py``.
"""

import ast
import os

from test_reach import ROOT, SRC, _parse, _python_files

ENGINE = os.path.join(SRC, "sim", "engine.py")


def clock_writes(path):
    """``file:line`` of every store to ``.now`` in one file."""
    rel = os.path.relpath(path, ROOT)
    found = []
    for node in ast.walk(_parse(path)):
        if (isinstance(node, ast.Attribute) and node.attr == "now"
                and isinstance(node.ctx, ast.Store)):
            found.append(f"{rel}:{node.lineno}")
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)
              and node.func.id == "setattr"
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value == "now"):
            found.append(f"{rel}:{node.lineno}")
    return found


def test_only_the_engine_writes_the_clock():
    writes = [where for path in _python_files(SRC) if path != ENGINE
              for where in clock_writes(path)]
    assert not writes, ("the simulated clock is written outside "
                        "sim/engine.py:\n  " + "\n  ".join(writes))


def test_the_engine_writes_it():
    # the constructor, each dispatched event and a run to a horizon: a
    # guard that found nothing here would be checking nothing
    assert len(clock_writes(ENGINE)) == 3
