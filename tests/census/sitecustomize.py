"""Record every ``src/repro`` function this interpreter enters.

Imported by ``site`` at start-up when this directory is on
``PYTHONPATH`` and ``REPRO_CENSUS_OUT`` names a directory; otherwise it
does nothing.  ``tests/reach_census.py`` puts it there, so every process
a surface starts -- perf children, ``gateway serve``, shard workers,
sweep pool workers, pytest subprocesses -- is recorded, forked or
spawned.

A global ``sys.settrace`` hook sees one ``call`` event per new frame
and returns ``None``, so no line events follow.  The first time a
``src/repro`` code object is entered, one line
``<path under src/>\\t<first line>\\t<name>`` is appended to
``<REPRO_CENSUS_OUT>/<pid>.reach`` with a single ``os.write``.  Nothing is
buffered, so a process that leaves through ``os._exit`` (every
``multiprocessing`` child) or is killed (a terminated pool worker, a
``SIGKILL``-ed server) has already written all it reached; at worst its
last line is cut short, and the reader skips lines that do not parse.
"""

import os
import sys
import threading

_OUT = os.environ.get("REPRO_CENSUS_OUT")
_MARKER = os.sep + "src" + os.sep + "repro" + os.sep


def _install(out_dir: str) -> None:
    seen = set()
    state = {"pid": None, "fd": -1}

    def record(code) -> None:
        path = code.co_filename
        at = path.rfind(_MARKER)
        if at < 0:
            return
        pid = os.getpid()
        if state["pid"] != pid:          # first write, or a forked child
            state["pid"] = pid
            state["fd"] = os.open(os.path.join(out_dir, f"{pid}.reach"),
                                  os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                                  0o644)
        line = f"{path[at + 5:]}\t{code.co_firstlineno}\t{code.co_name}\n"
        os.write(state["fd"], line.encode())

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in seen:
            seen.add(code)
            record(code)
        return None

    sys.settrace(tracer)
    threading.settrace(tracer)


if _OUT:
    os.makedirs(_OUT, exist_ok=True)
    _install(_OUT)
