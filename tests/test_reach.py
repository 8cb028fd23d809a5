"""Dead-definition guard: every definition under ``src/repro`` has a user.

A module-level function or class, or a non-dunder method, must be
referenced somewhere in ``src/``, ``tests/``, ``benchmarks/``,
``examples/`` or ``perf/``.  A reference is a ``Name`` that is read, an
``Attribute`` of that name (any object: the check is by name, so it is
conservative), a name imported with ``from ... import``, or the
function part of a ``"module:function"`` sweep-job target string.  A
package ``__init__.py`` re-exporting its own modules does not count.

A failure names each unreferenced definition.  Delete it, or call it;
``tests/reach_census.py`` measures what actually *runs*, which this
AST-only check cannot.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
SEARCHED = ("src", "tests", "benchmarks", "examples", "perf")

#: Called by the asyncio event loop on a datagram protocol, never by
#: name from Python code.
ALLOWED = {"datagram_received", "error_received"}

_JOB_TARGET = re.compile(r"^repro(\.\w+)+:(\w+)$")


def _python_files(top):
    for directory, _dirs, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def _parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions():
    """``{name: [where, ...]}`` for every checked definition."""
    found = {}

    def add(name, where):
        found.setdefault(name, []).append(where)

    def methods(cls, path, prefix):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not _is_dunder(node.name):
                    add(node.name, f"{path}:{prefix}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                methods(node, path, f"{prefix}.{node.name}")

    for path in _python_files(SRC):
        rel = os.path.relpath(path, ROOT)
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(node.name, f"{rel}:{node.name}")
            elif isinstance(node, ast.ClassDef):
                add(node.name, f"{rel}:{node.name}")
                methods(node, rel, node.name)
    return found


def references():
    """Every name something refers to, by the rules in the docstring."""
    used = set()
    for top in SEARCHED:
        for path in _python_files(os.path.join(ROOT, top)):
            package_init = (os.path.basename(path) == "__init__.py"
                            and path.startswith(SRC))
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    if not isinstance(node.ctx, ast.Store):
                        used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    if not (package_init and node.level > 0):
                        used.update(alias.name for alias in node.names)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    match = _JOB_TARGET.match(node.value)
                    if match:
                        used.add(match.group(2))
    return used


def test_every_definition_is_referenced():
    used = references() | ALLOWED
    dead = sorted(where for name, places in definitions().items()
                  if name not in used for where in places)
    assert not dead, ("defined under src/repro but referenced nowhere in "
                      + ", ".join(SEARCHED) + ":\n  " + "\n  ".join(dead))


def test_allowlist_entries_are_still_defined():
    # an allowlist entry whose definition is gone is itself dead weight
    assert ALLOWED <= set(definitions())
