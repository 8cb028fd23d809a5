"""Dead-code guards: every definition under ``src/repro`` has a user, and
every attribute it stores has a reader.

A module-level function or class, or a non-dunder method, must be
referenced somewhere in ``src/``, ``tests/``, ``examples/`` or
``perf/``.  A reference is a ``Name`` that is read, an
``Attribute`` of that name (any object: the check is by name, so it is
conservative), a name imported with ``from ... import``, or the
function part of a ``"module:function"`` sweep-job target string.  A
package ``__init__.py`` re-exporting its own modules does not count.

A failure names each unreferenced definition.  Delete it, or call it;
``tests/reach_census.py`` measures what actually *runs*, which this
AST-only check cannot.

A store is not a reference: an attribute assigned on ``self`` (plain,
augmented or annotated) and read nowhere passes the first guard, so a
second one requires a read of every stored name, by name, on any
object.  Two classes storing the same name share one verdict, so a
write-only attribute whose name another class reads needs a look by
hand (docs/ARCHITECTURE.md, "What nothing reads").

A third guard requires every module-level import in the searched trees
to be read, as a ``Name``, by the module that makes it.  Package
``__init__.py`` files re-export what they import, and ``__future__``
imports set compiler flags, so neither is checked.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
SEARCHED = ("src", "tests", "examples", "perf")

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


#: ``{name: reason}`` for an attribute stored on ``self`` and read by no
#: code on purpose, such as a reference held only so that an object stays
#: registered.  Empty: an app a system hosts needs no such reference,
#: since the system's listener table holds the app's bound flow handler.
KEPT_UNREAD = {}


def stores():
    """``{name: [where, ...]}`` for every ``self.<name>`` store (plain,
    augmented or annotated assignment, tuple targets included) under
    ``src/repro``."""
    found = {}
    for path in _python_files(SRC):
        rel = os.path.relpath(path, ROOT)
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                found.setdefault(node.attr, []).append(
                    f"{rel}:{node.lineno}: self.{node.attr}")
    return found


def reads():
    """Every attribute name something loads: ``<obj>.<name>`` in a load
    context (an augmented assignment's target is a store, not a read),
    or ``getattr(<obj>, "<name>"[, default])``."""
    used = set()
    for top in SEARCHED:
        for path in _python_files(os.path.join(ROOT, top)):
            for node in ast.walk(_parse(path)):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    used.add(node.attr)
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == "getattr"
                      and len(node.args) >= 2
                      and isinstance(node.args[1], ast.Constant)
                      and isinstance(node.args[1].value, str)):
                    used.add(node.args[1].value)
    return used


def test_every_stored_attribute_is_read():
    used = reads() | set(KEPT_UNREAD)
    unread = sorted(where for name, places in stores().items()
                    if name not in used for where in places)
    assert not unread, ("stored under src/repro but read nowhere in "
                        + ", ".join(SEARCHED) + ":\n  " + "\n  ".join(unread))


def test_kept_unread_entries_are_still_stored_and_unread():
    # an entry that something now reads, or nothing stores, is stale
    assert set(KEPT_UNREAD) <= set(stores())
    assert not set(KEPT_UNREAD) & reads()


def unread_imports():
    """``["path:line: name", ...]`` for every name a module-level import
    binds that its module never reads."""
    unread = []
    for top in SEARCHED:
        for path in _python_files(os.path.join(ROOT, top)):
            if os.path.basename(path) == "__init__.py":
                continue
            tree = _parse(path)
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)
                    and not isinstance(node.ctx, ast.Store)}
            for node in tree.body:
                if isinstance(node, ast.Import):
                    bound = [alias.asname or alias.name.split(".")[0]
                             for alias in node.names]
                elif (isinstance(node, ast.ImportFrom)
                      and node.module != "__future__"):
                    bound = [alias.asname or alias.name
                             for alias in node.names]
                else:
                    continue
                unread.extend(f"{os.path.relpath(path, ROOT)}:"
                              f"{node.lineno}: {name}"
                              for name in bound if name not in read)
    return unread


def test_every_module_level_import_is_read():
    unread = unread_imports()
    assert not unread, ("imported at module level but never read:\n  "
                        + "\n  ".join(unread))
