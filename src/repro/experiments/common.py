"""Shared utilities for the experiment harnesses.

Every experiment module exposes ``run_*`` functions returning plain dicts
(one per table row), so that:

* ``python -m repro`` can print the paper-style table;
* ``tests/test_experiments.py`` can assert the qualitative *shape* of each
  result (who wins, where the crossover is) — the reproduction criterion
  for a position paper with no published numbers.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence


def format_table(rows: Sequence[Dict[str, Any]],
                 columns: Optional[Sequence[str]] = None,
                 title: str = "") -> str:
    """Render result rows as an aligned text table (for CLI output)."""
    if not rows:
        return f"{title}\n(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered: List[List[str]] = [[_cell(row.get(col)) for col in columns]
                                 for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered))
              for i, col in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


def goodput_bps(bytes_delivered: int, elapsed: float) -> float:
    """Application-level throughput in bits/s."""
    if elapsed <= 0:
        return math.nan
    return bytes_delivered * 8.0 / elapsed


def delivery_gap(times: Sequence[float], at: float) -> float:
    """Largest inter-delivery gap at or after instant ``at``.

    The standard outage metric of the failover/mobility experiments: with
    periodic traffic, the max gap bounds how long the path was unusable
    (in-flight deliveries right after ``at`` do not mask the outage).

    When ``at`` precedes the first delivery there is no previous delivery
    to anchor the first gap: it is measured from ``at`` itself — the wait
    from the instant of interest until delivery starts counts as an
    outage and sets a floor on the result — and only deliveries strictly
    before ``at`` (beyond the float tolerance) may serve as the anchor,
    so a delivery on the wrong side of ``at`` can never stand in for a
    working path.  Input order is irrelevant (times are sorted here).
    """
    eps = 1e-9
    ordered = sorted(times)
    after = [t for t in ordered if t >= at - eps]
    if not after:
        return float("inf")
    before = [t for t in ordered if t < at - eps]
    gap = max(0.0, after[0] - (before[-1] if before else at))
    for earlier, later in zip(after, after[1:]):
        gap = max(gap, later - earlier)
    return gap


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(math.ceil(pct / 100.0 * len(ordered))) - 1))
    return ordered[rank]
