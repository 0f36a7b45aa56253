"""Disjoint unions of intervals (multi-interval lifespans).

Footnote 1 of the paper notes that the temporal model extends to
lifespans made of multiple intervals, at the cost of a factor equal to
the maximum number of intervals per lifespan.  :class:`IntervalSet` is
the reference implementation of that extension: a normalised (sorted,
disjoint, non-degenerate-merged) union of closed intervals supporting
the measure/intersection/union algebra the durability definitions need.

The indexed algorithms use single intervals; the brute-force baselines
and the multi-interval helpers in :mod:`repro.baselines` consume this
type directly.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from ..errors import ValidationError
from .interval import Interval

__all__ = ["IntervalSet"]


def _normalise(spans: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    ordered = sorted((float(a), float(b)) for a, b in spans)
    merged: List[Tuple[float, float]] = []
    for lo, hi in ordered:
        if hi < lo:
            raise ValidationError(f"interval end ({hi!r}) precedes start ({lo!r})")
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


class IntervalSet:
    """An immutable, normalised union of closed intervals.

    Supports the operations used by durability semantics:

    * ``measure`` — ``|I|`` = total length of the union (Section 1.1);
    * ``intersect`` — pointwise intersection with another set or interval;
    * ``union`` — pointwise union;
    * ``max_window`` — the longest contiguous piece (the alternative
      "durable within a single window" semantics of :mod:`repro.core.multi`).
    """

    __slots__ = ("_spans",)

    def __init__(self, spans: Iterable[Tuple[float, float]] = ()) -> None:
        object.__setattr__(self, "_spans", tuple(_normalise(spans)))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_intervals(intervals: Iterable[Interval]) -> "IntervalSet":
        """Build from :class:`Interval` objects (empty ones are dropped)."""
        return IntervalSet(
            (iv.start, iv.end) for iv in intervals if not iv.is_empty
        )

    @staticmethod
    def single(start: float, end: float) -> "IntervalSet":
        """A set holding one interval ``[start, end]``."""
        return IntervalSet([(start, end)])

    @staticmethod
    def empty() -> "IntervalSet":
        """The empty set."""
        return IntervalSet()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def spans(self) -> Tuple[Tuple[float, float], ...]:
        """The normalised (sorted, disjoint) component intervals."""
        return self._spans

    @property
    def is_empty(self) -> bool:
        return not self._spans

    @property
    def measure(self) -> float:
        """Total length of the union — the paper's ``|I|`` for interval sets."""
        return sum(hi - lo for lo, hi in self._spans)

    @property
    def max_window(self) -> float:
        """Length of the longest contiguous component (0 when empty)."""
        if not self._spans:
            return 0.0
        return max(hi - lo for lo, hi in self._spans)

    def intervals(self) -> Iterator[Interval]:
        """Iterate components as :class:`Interval` objects."""
        for lo, hi in self._spans:
            yield Interval(lo, hi)

    def contains_point(self, t: float) -> bool:
        """True when ``t`` lies in some component (binary search)."""
        import bisect

        idx = bisect.bisect_right(self._spans, (t, float("inf"))) - 1
        return idx >= 0 and self._spans[idx][0] <= t <= self._spans[idx][1]

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def intersect(self, other: "IntervalSet | Interval") -> "IntervalSet":
        """Pointwise intersection (linear two-pointer merge)."""
        if isinstance(other, Interval):
            if other.is_empty:
                return IntervalSet.empty()
            other = IntervalSet.single(other.start, other.end)
        out: List[Tuple[float, float]] = []
        a, b = self._spans, other._spans
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo <= hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    def union(self, other: "IntervalSet | Interval") -> "IntervalSet":
        """Pointwise union."""
        if isinstance(other, Interval):
            if other.is_empty:
                return self
            other = IntervalSet.single(other.start, other.end)
        return IntervalSet(list(self._spans) + list(other._spans))

    def subtract(self, other: "IntervalSet | Interval") -> "IntervalSet":
        """Pointwise set difference ``self \\ other``."""
        if isinstance(other, Interval):
            if other.is_empty:
                return self
            other = IntervalSet.single(other.start, other.end)
        out: List[Tuple[float, float]] = []
        blockers: Sequence[Tuple[float, float]] = other._spans
        for lo, hi in self._spans:
            cur = lo
            for b_lo, b_hi in blockers:
                if b_hi <= cur:
                    continue
                if b_lo >= hi:
                    break
                if b_lo > cur:
                    out.append((cur, b_lo))
                cur = max(cur, b_hi)
                if cur >= hi:
                    break
            if cur < hi:
                out.append((cur, hi))
        return IntervalSet(out)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntervalSet) and self._spans == other._spans

    def __hash__(self) -> int:
        return hash(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"[{lo:g},{hi:g}]" for lo, hi in self._spans)
        return f"IntervalSet({body})"
