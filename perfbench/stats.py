"""Summary statistics and seeded ordering shared by the benchmark harness."""

from __future__ import annotations

import math
import random

# Tail percentiles the harness may report, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)


def _rank(n: int, pct: float) -> int:
    """The 1-based nearest rank of ``pct`` (0..100) among ``n`` samples;
    rounding first keeps 99.9% of 10000 at 9990."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(samples, pct: float) -> float:
    """The nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), pct) - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``pct``."""
    return n - _rank(n, pct)


def tail_percentile(n: int) -> float | None:
    """The highest percentile of :data:`TAIL_LADDER` with at least ten of
    ``n`` samples beyond it, or None when even the lowest has fewer."""
    for pct in TAIL_LADDER:
        if samples_beyond(n, pct) >= 10:
            return pct
    return None


def stratified_order(strata: dict, rng: random.Random) -> list:
    """Shuffle every stratum with ``rng`` and interleave the strata evenly,
    so that every prefix of the result holds each stratum in close to its
    share of the whole.  ``strata`` maps a sortable key to a list of items;
    the result does not depend on the order the strata were inserted."""
    keyed = []
    for key in sorted(strata):
        members = list(strata[key])
        rng.shuffle(members)
        n = len(members)
        for j, item in enumerate(members):
            keyed.append(((j + rng.random()) / n, item))
    keyed.sort(key=lambda pair: pair[0])
    return [item for _pos, item in keyed]
