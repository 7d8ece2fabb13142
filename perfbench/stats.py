"""Arithmetic the benchmark reports with.

* :func:`tail_percentile` — the highest percentile (up to the one
  asked for) that still has at least ``min_beyond`` samples beyond it,
  with the sample count it rests on;
* :class:`TickClock` — per-tick wall stamps that map the serving
  stack's virtual time onto wall time, so a request's latency is
  measured from when it was *due* and a slow tick delays everything
  due during it.
"""

from __future__ import annotations

import bisect
import math
import statistics
from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class Tail:
    """A percentile as reported: which one, its value, what it rests on.

    Attributes:
        percentile: the percentile actually reported (may be below the
            one asked for when the sample is too small).
        value: the sample value at that percentile (nearest rank).
        samples: number of samples.
        beyond: samples strictly past the reported rank.
    """

    percentile: float
    value: float
    samples: int
    beyond: int


def tail_percentile(
    values: Sequence[float], q: float, min_beyond: int = 10
) -> Tail:
    """Nearest-rank percentile ``q``, lowered until ``min_beyond`` remain.

    The rank of percentile ``p`` over ``n`` sorted samples is
    ``ceil(p / 100 * n)`` (1-based); the samples beyond it number
    ``n - rank``.  When percentile ``q`` leaves fewer than
    ``min_beyond`` samples beyond, the rank drops to ``n - min_beyond``
    and the percentile reported is ``100 * rank / n``.  With no more
    than ``min_beyond`` samples the smallest sample is reported.
    """
    if not values:
        raise ValueError("tail_percentile needs at least one sample")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n - 1e-9))
    if n - rank < min_beyond:
        rank = max(1, n - min_beyond)
        percentile = 100.0 * rank / n
    else:
        percentile = float(q)
    return Tail(
        percentile=percentile,
        value=float(ordered[rank - 1]),
        samples=n,
        beyond=n - rank,
    )


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


class TickClock:
    """Wall stamps of every tick, keyed by the tick's virtual start.

    Each serving tick starts at an integral virtual time ``v``, runs
    from wall ``start`` to wall ``end`` and completes its decode cycle
    at virtual time ``v + 1``.  Ticks are added in order; virtual
    starts must increase, but wall gaps between ticks (an RL update
    between two rollouts) are allowed.
    """

    def __init__(self) -> None:
        self._virtual: List[float] = []
        self._start: List[float] = []
        self._end: List[float] = []

    def add(self, virtual: float, start: float, end: float) -> None:
        """Record one tick's virtual start and wall interval."""
        if self._virtual and virtual <= self._virtual[-1]:
            raise ValueError(
                f"tick virtual starts must increase: {virtual} after "
                f"{self._virtual[-1]}"
            )
        self._virtual.append(float(virtual))
        self._start.append(start)
        self._end.append(end)

    def __len__(self) -> int:
        return len(self._virtual)

    def durations(self) -> List[float]:
        """Wall seconds of every tick, in order."""
        return [e - s for s, e in zip(self._start, self._end)]

    def due(self, virtual: float) -> float:
        """Wall time at which virtual time ``virtual`` fell due.

        Interpolates inside the tick whose virtual span holds it: a
        request due half-way through tick ``k`` is due half-way through
        that tick's wall interval, however long the tick ran.  Times
        before the first tick map to its start; past the last tick to
        its end.
        """
        index = bisect.bisect_right(self._virtual, virtual) - 1
        if index < 0:
            return self._start[0]
        frac = min(1.0, virtual - self._virtual[index])
        start, end = self._start[index], self._end[index]
        return start + frac * (end - start)

    def completed(self, virtual: float) -> Optional[float]:
        """Wall end of the tick whose cycle completed at ``virtual``.

        Returns None when no recorded tick started at ``virtual - 1``.
        """
        target = virtual - 1.0
        index = bisect.bisect_left(self._virtual, target)
        if index < len(self._virtual) and self._virtual[index] == target:
            return self._end[index]
        return None
