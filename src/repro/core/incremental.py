"""Incremental durable-triangle reporting — Section 4 (Theorem 4.2).

Queries arrive online with varying durability parameters ``τ₁, τ₂, …``.
Downward moves (``τ < τ≺``) report only the *delta* ``T_τ \\ T_τ≺``; the
machinery is:

* **activation thresholds** ``β^τ_p`` (Definition 4.1): the largest
  durability below ``τ`` of any triangle anchored at ``p`` that is not
  τ-durable.  Computed by binary search over the ``O(n)`` candidate
  values ``{I⁺_q − I⁻_p}`` with a ``DetectTriangle`` oracle
  (Algorithm 3, ``ComputeActivation``);
* ``S_β`` — a lazy max-heap over current thresholds; a query ``τ``
  activates exactly the anchors with ``β^{τ≺}_p ≥ τ``;
* ``ReportDeltaTriangle`` (Algorithm 2) — per activated anchor, the
  ``Λ`` / ``Λ̄`` partition of ``durableBallQ'`` enumerates exactly the
  pairs whose triangle durability falls in ``[τ, τ≺)``.

Upward moves (``τ ≥ τ≺``) trim the client-side result store and update
``S_β`` from the removed durabilities, exactly as the first maintenance
scenario of Section 4.3 describes.

Implementation notes (DESIGN.md note 2): when the anchor's own lifespan
satisfies ``|I_p| < τ≺``, *every* τ-eligible partner pair forms a
not-τ≺-durable triangle (its durability is capped at ``|I_p|``); the
printed Algorithms 2/3 miss this branch and both the backend below and
the detection oracle restore it.

The session is generic over an :class:`AnchorBackend`; the cover-tree
backend lives here, the exact ℓ∞ backend in :mod:`repro.core.linf`.
"""

from __future__ import annotations

import bisect
import heapq
from abc import ABC, abstractmethod
from itertools import combinations
from typing import Dict, List, Tuple

import numpy as np

from ..errors import ValidationError
from ..structures.durable_ball import DurableBallStructure
from ..types import TemporalPointSet, TriangleRecord
from .triangles import _record, triangles_for_anchor

__all__ = [
    "AnchorBackend",
    "CoverTreeAnchorBackend",
    "compute_activation",
    "IncrementalTriangleSession",
]

_INF = float("inf")
_NEG_INF = float("-inf")


class AnchorBackend(ABC):
    """Per-anchor reporting/detection oracle used by the session.

    Implementations: :class:`CoverTreeAnchorBackend` (ε-approximate, any
    metric) and :class:`repro.core.linf.LinfAnchorBackend` (exact ℓ∞).
    """

    tps: TemporalPointSet

    @abstractmethod
    def report_all(self, anchor: int, tau: float) -> List[TriangleRecord]:
        """All τ-durable triangles anchored at ``anchor`` (Algorithm 1)."""

    @abstractmethod
    def report_delta(
        self, anchor: int, tau: float, tau_prec: float
    ) -> List[TriangleRecord]:
        """Triangles anchored at ``anchor`` that are τ- but not τ≺-durable
        (Algorithm 2)."""

    @abstractmethod
    def detect(self, anchor: int, tau_lo: float, tau_hi: float) -> bool:
        """Does any anchored triangle have durability in ``[τ_lo, τ_hi)``?
        (the ``DetectTriangle`` subroutine of Algorithm 3)."""


class CoverTreeAnchorBackend(AnchorBackend):
    """ε-approximate backend over ``D'`` (Sections 3–4)."""

    def __init__(self, structure: DurableBallStructure) -> None:
        self.structure = structure
        self.tps = structure.tps

    # -- Algorithm 1 ----------------------------------------------------
    def report_all(self, anchor: int, tau: float) -> List[TriangleRecord]:
        return list(triangles_for_anchor(self.structure, anchor, tau))

    # -- Algorithm 2 ----------------------------------------------------
    def report_delta(
        self, anchor: int, tau: float, tau_prec: float
    ) -> List[TriangleRecord]:
        tps = self.tps
        if tps.duration(anchor) < tau:
            return []
        if tps.duration(anchor) < tau_prec:
            # Missing-branch fix: every anchored τ-durable triangle has
            # durability ≤ |I_p| < τ≺, so nothing was reported before.
            return self.report_all(anchor, tau)
        subsets = self.structure.query_split(anchor, tau, tau_prec)
        out: List[TriangleRecord] = []
        lam_ids = [s.lam.ids() for s in subsets]
        bar_ids = [s.lam_bar.ids() for s in subsets]
        for j in range(len(subsets)):
            # Type (1): both in Λ of the same ball.
            for a, b in combinations(lam_ids[j], 2):
                out.append(_record(tps, anchor, a, b))
            # Type (2): Λ × Λ̄ of the same ball.
            for a in lam_ids[j]:
                for b in bar_ids[j]:
                    out.append(_record(tps, anchor, a, b))
        for i in range(len(subsets)):
            for j in range(i + 1, len(subsets)):
                if not self._has_cross(lam_ids, bar_ids, i, j):
                    continue
                if not self.structure.linked(subsets[i].group, subsets[j].group):
                    continue
                for a in lam_ids[i]:
                    for b in lam_ids[j]:
                        out.append(_record(tps, anchor, a, b))
                for a in lam_ids[i]:
                    for b in bar_ids[j]:
                        out.append(_record(tps, anchor, a, b))
                for a in bar_ids[i]:
                    for b in lam_ids[j]:
                        out.append(_record(tps, anchor, a, b))
        return out

    @staticmethod
    def _has_cross(lam_ids, bar_ids, i, j) -> bool:
        li, lj = len(lam_ids[i]), len(lam_ids[j])
        bi, bj = len(bar_ids[i]), len(bar_ids[j])
        return bool(li * lj or li * bj or bi * lj)

    # -- DetectTriangle (Algorithm 3) ------------------------------------
    def detect(self, anchor: int, tau_lo: float, tau_hi: float) -> bool:
        tps = self.tps
        duration = tps.duration(anchor)
        if duration < tau_lo:
            return False
        if duration < tau_hi:
            # Missing-branch fix: any τ_lo-eligible pair caps at |I_p| < τ_hi.
            subsets = self.structure.query(anchor, tau_lo)
            nonempty = [s for s in subsets if s.count]
            for s in nonempty:
                if s.count >= 2:
                    return True
            for i in range(len(nonempty)):
                for j in range(i + 1, len(nonempty)):
                    if self.structure.linked(nonempty[i].group, nonempty[j].group):
                        return True
            return False
        split = self.structure.query_split(anchor, tau_lo, tau_hi)
        lam = [s.lam.count for s in split]
        bar = [s.lam_bar.count for s in split]
        for j in range(len(split)):
            if lam[j] >= 2:
                return True
            if lam[j] >= 1 and bar[j] >= 1:
                return True
        for i in range(len(split)):
            for j in range(i + 1, len(split)):
                cross = (
                    (lam[i] and lam[j])
                    or (lam[i] and bar[j])
                    or (bar[i] and lam[j])
                )
                if cross and self.structure.linked(split[i].group, split[j].group):
                    return True
        return False


def compute_activation(
    backend: AnchorBackend,
    anchor: int,
    tau: float,
    sorted_ends: np.ndarray,
) -> float:
    """``ComputeActivation`` (Algorithm 3): the threshold ``β^τ_p``.

    Binary search over the candidate durabilities
    ``{I⁺_q − I⁻_p : q ∈ P}`` clipped to ``(0, min(τ, |I_p|)]`` — every
    anchored triangle's durability is of this form — using the
    ``detect`` oracle for membership in ``[c, τ)``.
    """
    tps = backend.tps
    sp = float(tps.starts[anchor])
    ep = float(tps.ends[anchor])
    lo_idx = bisect.bisect_right(sorted_ends, sp)
    if ep < sp + tau:
        hi_idx = bisect.bisect_right(sorted_ends, ep)
    else:
        hi_idx = bisect.bisect_left(sorted_ends, sp + tau)
    if lo_idx >= hi_idx:
        return _NEG_INF
    best = _NEG_INF
    lo, hi = lo_idx, hi_idx - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        cand = float(sorted_ends[mid]) - sp
        if backend.detect(anchor, cand, tau):
            best = cand
            lo = mid + 1
        else:
            hi = mid - 1
    return best


class IncrementalTriangleSession:
    """The online ``IncrDurableTriangle`` solver (Definition 1.4, Theorem 4.2).

    Parameters
    ----------
    tps:
        Input ``(P, φ, I)``.
    epsilon:
        Distance approximation; ignored by the exact ℓ∞ backend.
    backend:
        ``"linf-exact"`` (Appendix B.3), or the name of any spatial
        backend (``"cover-tree"``, ``"vector"``, ``"auto"``: the
        ε-approximate solver of Section 4 over that decomposition).

    Usage::

        session = IncrementalTriangleSession(tps, epsilon=0.5)
        delta1 = session.query(10.0)   # all 10-durable triangles
        delta2 = session.query(5.0)    # only the new ones
        _      = session.query(8.0)    # upward move: trims, returns []

    The session also maintains the client-side result store
    (:meth:`current_results`), grouped per anchor and sorted by
    durability, as in the first maintenance scenario of Section 4.3.
    """

    def __init__(
        self,
        tps: TemporalPointSet,
        epsilon: float = 0.5,
        backend: str = "auto",
    ) -> None:
        self.tps = tps
        self.epsilon = float(epsilon)
        if backend == "linf-exact":
            from .linf import LinfAnchorBackend

            self.backend: AnchorBackend = LinfAnchorBackend(tps)
        else:
            if not 0 < self.epsilon <= 1:
                raise ValidationError(
                    f"epsilon must lie in (0, 1], got {epsilon!r}"
                )
            # Unknown names raise BackendError listing the registered
            # spatial backends.
            structure = DurableBallStructure(tps, self.epsilon / 4.0, backend)
            self.backend = CoverTreeAnchorBackend(structure)

        self._sorted_ends = np.sort(tps.ends)
        # S_α: maximum activation thresholds β^{+∞}_p, which seed S_β
        # (an empty S_β is "a completed query at τ = +∞", Section 4.2).
        self._beta: Dict[int, float] = {}
        self._heap: List[Tuple[float, int, float]] = []
        for p in range(tps.n):
            alpha = compute_activation(self.backend, p, _INF, self._sorted_ends)
            if alpha > _NEG_INF:
                self._beta[p] = alpha
                heapq.heappush(self._heap, (-alpha, p, alpha))
        self.max_activation = dict(self._beta)  # frozen S_α, kept for queries
        self._tau_star = _INF
        self._store: Dict[int, List[TriangleRecord]] = {}

    # ------------------------------------------------------------------
    @property
    def tau_current(self) -> float:
        """The effective durability threshold after the last query."""
        return self._tau_star

    def activation_threshold(self, anchor: int) -> float:
        """Current ``β^{τ*}_p`` (−inf when ``p`` anchors nothing new)."""
        return self._beta.get(anchor, _NEG_INF)

    def current_results(self) -> List[TriangleRecord]:
        """The full maintained result set for the current τ."""
        out: List[TriangleRecord] = []
        for recs in self._store.values():
            out.extend(recs)
        return out

    # ------------------------------------------------------------------
    def query(self, tau: float) -> List[TriangleRecord]:
        """Move the durability threshold to ``tau``.

        Downward moves return the delta (new triangles, each exactly
        once); upward moves trim the store and return ``[]``.
        """
        if tau <= 0:
            raise ValidationError(f"durability parameter must be positive, got {tau!r}")
        if tau >= self._tau_star:
            self._trim(tau)
            self._tau_star = float(tau)
            return []
        delta: List[TriangleRecord] = []
        for p in self._pop_activated(tau):
            if self._tau_star == _INF:
                recs = self.backend.report_all(p, tau)
            else:
                recs = self.backend.report_delta(p, tau, self._tau_star)
            if recs:
                bucket = self._store.setdefault(p, [])
                bucket.extend(recs)
                bucket.sort(key=lambda r: -r.durability)
                delta.extend(recs)
            beta = compute_activation(self.backend, p, tau, self._sorted_ends)
            self._set_beta(p, beta)
        self._tau_star = float(tau)
        return delta

    # ------------------------------------------------------------------
    def _pop_activated(self, tau: float) -> List[int]:
        activated: List[int] = []
        while self._heap and -self._heap[0][0] >= tau:
            _, p, beta = heapq.heappop(self._heap)
            if self._beta.get(p) == beta:  # else: stale entry
                activated.append(p)
        return activated

    def _set_beta(self, p: int, beta: float) -> None:
        if beta > _NEG_INF:
            self._beta[p] = beta
            heapq.heappush(self._heap, (-beta, p, beta))
        else:
            self._beta.pop(p, None)

    def _trim(self, tau: float) -> None:
        # Client-side trimming (Section 4.3): drop triangles below τ and
        # refresh β from the highest removed durability per anchor.
        for p in list(self._store):
            bucket = self._store[p]
            keep = [r for r in bucket if r.durability >= tau]
            removed = [r.durability for r in bucket if r.durability < tau]
            if removed:
                self._set_beta(p, max(max(removed), self._beta.get(p, _NEG_INF)))
            if keep:
                self._store[p] = keep
            else:
                del self._store[p]
