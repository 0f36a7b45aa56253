"""The SUM-durability primitive ``ComputeSumD`` (Section 5.1).

Given a query interval ``J``, return ``Σ_{I ∈ ℐ} |I ∩ J|`` over a fixed
family of intervals ``ℐ``.  The paper's ``ITΣ`` is an interval tree
whose nodes carry endpoint prefix sums (``O(log² n)`` per query).
:class:`CoverageProfile` gives identical output more simply: since
``Σ |I ∩ J| = ∫_J c(t) dt`` where ``c`` counts intervals covering ``t``,
we precompute the integrated step function ``F`` at every event point
and answer ``F(J⁺) − F(J⁻)`` in ``O(log n)`` (DESIGN.md note 4).  The
tests cross-check it against a direct sum.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple

from ..errors import ValidationError

__all__ = ["CoverageProfile"]


class CoverageProfile:
    """Integrated coverage step function — the ``O(log n)`` ``ComputeSumD``.

    Build: sort the ``2n`` endpoint events; between consecutive events the
    number of covering intervals ``c`` is constant, so the integral
    ``F(t) = ∫ c`` is piecewise linear.  ``sum_intersections(a, b)``
    evaluates ``F(b) − F(a)`` with two binary searches.
    """

    __slots__ = ("_times", "_integral", "_slopes", "_n")

    def __init__(self, intervals: Sequence[Tuple[float, float]]) -> None:
        events: List[Tuple[float, int]] = []
        for lo, hi in intervals:
            if hi < lo:
                raise ValidationError(f"interval end ({hi!r}) precedes start ({lo!r})")
            events.append((float(lo), +1))
            events.append((float(hi), -1))
        events.sort()
        times: List[float] = []
        integral: List[float] = []
        slopes: List[int] = []
        cover = 0
        acc = 0.0
        prev: Optional[float] = None
        for t, delta in events:
            if prev is None:
                times.append(t)
                integral.append(0.0)
            elif t > prev:
                acc += cover * (t - prev)
                times.append(t)
                integral.append(acc)
                slopes.append(cover)
            cover += delta
            prev = t
        self._times = times
        self._integral = integral
        self._slopes = slopes  # slope on [times[i], times[i+1])
        self._n = len(intervals)

    def __len__(self) -> int:
        return self._n

    def _value(self, t: float) -> float:
        times = self._times
        if not times or t <= times[0]:
            return 0.0
        if t >= times[-1]:
            return self._integral[-1]
        idx = bisect.bisect_right(times, t) - 1
        return self._integral[idx] + self._slopes[idx] * (t - times[idx])

    def sum_intersections(self, a: float, b: float) -> float:
        """``Σ_I |I ∩ [a, b]|`` (0 when ``b ≤ a``)."""
        if b <= a or self._n == 0:
            return 0.0
        return self._value(b) - self._value(a)
