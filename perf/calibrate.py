"""The in-run yardstick: how fast the CPU under the measured process is
running, sampled while it runs, so a time is reported at
*reference-box speed*.

The reference box is a shared 2-vCPU VM.  Each vCPU's speed steps
between about 1x and 2x slower every few seconds, the two vCPUs
independently (host-level contention: CPU time inflates with wall time
and no steal is reported).  Raw seconds of ten runs spread 20-40 %
there — wider than any bound worth setting — and a calibration loop run
before and after a measurement does not help, because the speed has
changed by then.  What does track it (per-second CPU time of a pinned
workload: spread 0.37 raw, 0.07 scaled) is a sampler **on the same
CPU at the same time**:

* the measured process is pinned to one CPU;
* ``python3 perf/calibrate.py`` is pinned there too and, twenty
  times a second, times a fixed ~1 ms pure-Python kernel in *its own
  CPU time* (so waiting for the CPU does not count) — under 2 % of the
  CPU;
* a measurement that ran from ``a`` to ``b`` is scaled by the mean of
  ``REFERENCE_S / kernel_time`` over the samples in ``[a, b]``: the
  seconds it would have taken at the reference box's quiet speed.

On a quiet reference box the factor is 1.  Raw values are printed and
recorded beside the calibrated ones.  The kernel uses only the standard
library, so no change to the program can move the yardstick.
"""

from __future__ import annotations

import heapq
import json
import os
import select
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

import procs

#: CPU time of ``kernel()`` at the reference box's quiet speed (2-vCPU
#: Xeon 2.1 GHz VM, CPython 3.11.7): the fastest plateau seen over an
#: hour of samples.  Changing it rescales every time metric.
REFERENCE_S = 0.00080
_EVENTS = 800
_PERIOD_S = 0.05

Series = List[Tuple[float, float]]      # (CLOCK_MONOTONIC, kernel CPU s)


def kernel() -> int:
    """What the simulator does, in small: a heap of timestamped tuples
    and a table of mutable rows."""
    heap: list = []
    table = {}
    push, pop = heapq.heappush, heapq.heappop
    for index in range(_EVENTS):
        push(heap, ((index * 7919 % 10007) * 1e-3, index, (index, "pdu")))
        table[index] = [index, None]
    done = 0
    while heap:
        _when, index, payload = pop(heap)
        row = table[index]
        row[1] = payload
        done += len(row)
    return done


def usable_cpus(count: int) -> List[int]:
    """The first ``count`` CPUs this process may run on."""
    return sorted(os.sched_getaffinity(0))[:count]


# ----------------------------------------------------------------------
# The sampler process
# ----------------------------------------------------------------------
def _sampler_main() -> int:
    """Sample until stdin closes (the harness stopping us, or dying),
    then print the series.  The harness pinned us when it spawned us."""
    series: Series = []
    for _ in range(20):
        kernel()                        # warm the code paths
    while not select.select([sys.stdin], [], [], _PERIOD_S)[0]:
        started = time.thread_time()
        kernel()
        series.append((procs.now(), time.thread_time() - started))
    json.dump(series, sys.stdout)
    return 0


class Samplers:
    """One sampler per CPU, alive for one run."""

    def __init__(self, cpus: Sequence[int]) -> None:
        self._procs: Dict[int, subprocess.Popen] = {
            cpu: procs.spawn([sys.executable, os.path.abspath(__file__)],
                             [cpu], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL)
            for cpu in cpus}
        self.series: Dict[int, Series] = {}

    def stop(self) -> None:
        """Collect every series; the samplers are gone afterwards."""
        for cpu, proc in self._procs.items():
            try:
                out, _ = proc.communicate(input=b"", timeout=10)
                self.series[cpu] = [tuple(row) for row in json.loads(out)]
            except (subprocess.TimeoutExpired, ValueError, OSError):
                self.series[cpu] = []
            finally:
                procs.stop(proc)
        self._procs = {}

    def speed(self, start: float, end: float,
              cpus: Sequence[int]) -> float:
        """Mean speed (1 = reference) of ``cpus`` over ``[start, end]``
        on the shared monotonic clock; 1.0 when nothing was sampled."""
        speeds = [speed_over(self.series[cpu], start, end)
                  for cpu in cpus if self.series.get(cpu)]
        return sum(speeds) / len(speeds) if speeds else 1.0


def speed_over(series: Series, start: float, end: float) -> float:
    """Mean of ``REFERENCE_S / kernel time`` over the samples inside the
    window (sampling is uniform in time, so this is the time average);
    the nearest sample when the window holds none."""
    inside = [cost for when, cost in series if start <= when <= end]
    if not inside:
        middle = (start + end) / 2.0
        inside = [min(series, key=lambda row: abs(row[0] - middle))[1]]
    return sum(REFERENCE_S / cost for cost in inside) / len(inside)


if __name__ == "__main__":
    sys.exit(_sampler_main())
