"""Child processes of the benchmark: started in their own session,
always killed as a group, never left behind.

Every child (a sim repeat with its shard workers, the gateway server,
the probe runner) is its own session and process group, so one
``killpg`` reaches the grandchildren ``multiprocessing`` started too.
``run`` and ``stop`` are the only ways a child ends; an ``atexit`` hook
and the SIGTERM handler cover the paths around them.
"""

from __future__ import annotations

import atexit
import os
import signal
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Profiles and other per-run files; inside the checkout, git-ignored.
SCRATCH = os.path.join(HERE, ".scratch")

_LIVE: Set[subprocess.Popen] = set()
_TICKS = os.sysconf("SC_CLK_TCK")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    # string-keyed dict layouts, hence speeds, differ from process to
    # process under hash randomisation (gateway_echo: +-7 % between
    # servers, +-3 % with the seed fixed); outcomes do not depend on it
    env["PYTHONHASHSEED"] = "0"
    return env


def now() -> float:
    """A clock parent and child share (``perf_counter`` need not be)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(argv: List[str], cpus: Optional[Iterable[int]] = None,
          **popen_kwargs) -> subprocess.Popen:
    """Start a child in its own session, pinned to ``cpus`` if given
    (from outside, as ``taskset -p`` would; its children inherit it)."""
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                            start_new_session=True, **popen_kwargs)
    _LIVE.add(proc)
    if cpus is not None:
        try:
            os.sched_setaffinity(proc.pid, cpus)
        except OSError:
            pass        # not permitted here: measured unpinned
    return proc


def stop(proc: subprocess.Popen, interrupt_first: float = 0.0) -> None:
    """End the child's whole group and reap it.  ``interrupt_first``
    gives it that many seconds to leave on SIGINT (a profiled server
    writes its profile on the way out)."""
    try:
        if interrupt_first > 0 and proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=interrupt_first)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)   # pgid == pid (new session)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    finally:
        for stream in (proc.stdout, proc.stderr, proc.stdin):
            if stream is not None:
                stream.close()
        _LIVE.discard(proc)


def run(argv: List[str], timeout: float,
        cpus: Optional[Iterable[int]] = None
        ) -> Tuple[Optional[int], str, str]:
    """Run a child to completion: (exit code or None on timeout, stdout,
    stderr).  Its group is dead when this returns, whatever happened."""
    proc = spawn(argv, cpus, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                 text=True)
    shm_before = _shm_names()
    started = time.time()
    try:
        try:
            out, err = proc.communicate(timeout=timeout)
            code: Optional[int] = proc.returncode
        except subprocess.TimeoutExpired:
            code, out, err = None, "", f"timed out after {timeout:.0f} s"
    finally:
        stop(proc)
    if code != 0:
        _unlink_orphan_shm(shm_before, started)
    return code, out, err


def _shm_names() -> Set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _unlink_orphan_shm(before: Set[str], since: float) -> None:
    """A killed shard run cannot unlink its rings: remove the
    ``SharedMemory`` segments of ours that appeared while it ran."""
    for name in _shm_names() - before:
        path = os.path.join("/dev/shm", name)
        try:
            info = os.stat(path)
            if (name.startswith("psm_") and info.st_uid == os.getuid()
                    and info.st_ctime >= since - 1):
                os.unlink(path)
        except OSError:
            pass


def cpu_seconds(pid: int) -> float:
    """CPU seconds a live process has used: the scheduler's nanosecond
    run time of its threads (``/proc/<pid>/task/*/schedstat``), or the
    10 ms ticks of ``/proc/<pid>/stat`` where that is not kept."""
    total = 0
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
                total += int(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        total = 0
    if total:
        return total / 1e9
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS    # utime, stime


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _stop_all() -> None:
    for proc in list(_LIVE):
        stop(proc)


def _on_sigterm(_signum, _frame) -> None:
    sys.exit(143)       # unwinds through every finally, then atexit


def install_cleanup() -> None:
    atexit.register(_stop_all)
    signal.signal(signal.SIGTERM, _on_sigterm)
