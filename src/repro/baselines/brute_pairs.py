"""Ground truth for aggregate-durable pairs (Section 5).

Implements the de facto semantics of Algorithms 4/8 (DESIGN.md note 3):
for an anchored pair ``(p, q)`` with ``φ(p, q) ≤ 1`` the witness pool is
``U = {u ∉ {p,q} : φ(u,p) ≤ 1, φ(u,q) ≤ 1}`` and the window is
``I_p ∩ I_q``.

* SUM: ``Σ_{u ∈ U} |I_u ∩ window| ≥ τ`` with the additional durable-edge
  requirement ``|window| ≥ τ``.
* UNION: exists ``U' ⊆ U`` with ``|U'| ≤ κ`` and
  ``|∪_{u ∈ U'} (I_u ∩ window)| ≥ τ`` — decided *exactly* with a
  max-κ-coverage dynamic program (intervals on a line admit an exact
  polynomial DP, unlike general max coverage).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from ..errors import ValidationError
from ..types import TemporalPointSet

__all__ = [
    "max_kappa_coverage",
    "brute_sum_pairs",
    "brute_union_pairs",
    "brute_pair_witness_sum",
]


def max_kappa_coverage(
    intervals: Sequence[Tuple[float, float]],
    window: Tuple[float, float],
    kappa: int,
) -> float:
    """Exact maximum length of ``window`` coverable by ≤ κ intervals.

    Dynamic program over intervals sorted by right endpoint with state
    (count used, rightmost covered point).  For minimal optimal subsets
    the marginal-gain telescoping equals the true union length, so the
    maximum over states is exact (DESIGN.md note 3).
    """
    if kappa < 1:
        raise ValidationError(f"kappa must be >= 1, got {kappa!r}")
    a, b = window
    if b <= a:
        return 0.0
    clipped = sorted(
        (
            (max(lo, a), min(hi, b))
            for lo, hi in intervals
            if min(hi, b) > max(lo, a)
        ),
        key=lambda t: t[1],
    )
    if not clipped:
        return 0.0
    # dp[k] maps rightmost-covered -> best covered length with k intervals.
    dp: List[Dict[float, float]] = [dict() for _ in range(kappa + 1)]
    dp[0][a] = 0.0
    best = 0.0
    for lo, hi in clipped:
        for k in range(kappa - 1, -1, -1):
            if not dp[k]:
                continue
            for r, cov in list(dp[k].items()):
                if hi <= r:
                    continue
                gain = hi - max(lo, r)
                new_cov = cov + gain
                cur = dp[k + 1].get(hi)
                if cur is None or new_cov > cur:
                    dp[k + 1][hi] = new_cov
                    if new_cov > best:
                        best = new_cov
    return best


def _adjacency(tps: TemporalPointSet, threshold: float) -> np.ndarray:
    n = tps.n
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        adj[i] = tps.metric.dists(tps.points, tps.points[i]) <= threshold
    np.fill_diagonal(adj, False)
    return adj


def brute_pair_witness_sum(
    tps: TemporalPointSet, p: int, q: int, threshold: float = 1.0
) -> float:
    """``Σ_{u ∉ {p,q}} |I_u ∩ I_p ∩ I_q|`` over threshold-near witnesses."""
    lo = max(float(tps.starts[p]), float(tps.starts[q]))
    hi = min(float(tps.ends[p]), float(tps.ends[q]))
    if hi <= lo:
        return 0.0
    dp = tps.metric.dists(tps.points, tps.points[p])
    dq = tps.metric.dists(tps.points, tps.points[q])
    total = 0.0
    for u in np.nonzero((dp <= threshold) & (dq <= threshold))[0]:
        if u == p or u == q:
            continue
        total += max(0.0, min(float(tps.ends[u]), hi) - max(float(tps.starts[u]), lo))
    return total


def brute_sum_pairs(
    tps: TemporalPointSet, tau: float, threshold: float = 1.0
) -> Set[Tuple[int, int]]:
    """Keys (sorted id pairs) of all τ-SUM-durable pairs."""
    if tau <= 0:
        raise ValidationError(f"durability parameter must be positive, got {tau!r}")
    adj = _adjacency(tps, threshold)
    out: Set[Tuple[int, int]] = set()
    for p in range(tps.n):
        for q in range(p + 1, tps.n):
            if not adj[p, q]:
                continue
            lo = max(float(tps.starts[p]), float(tps.starts[q]))
            hi = min(float(tps.ends[p]), float(tps.ends[q]))
            if hi - lo < tau:  # durable-edge requirement
                continue
            if brute_pair_witness_sum(tps, p, q, threshold) >= tau:
                out.add((p, q))
    return out


def brute_union_pairs(
    tps: TemporalPointSet,
    tau: float,
    kappa: int,
    threshold: float = 1.0,
) -> Set[Tuple[int, int]]:
    """Keys of all exactly ``(τ, κ)``-UNION-durable pairs."""
    if tau <= 0:
        raise ValidationError(f"durability parameter must be positive, got {tau!r}")
    adj = _adjacency(tps, threshold)
    out: Set[Tuple[int, int]] = set()
    for p in range(tps.n):
        dp = tps.metric.dists(tps.points, tps.points[p])
        for q in range(p + 1, tps.n):
            if not adj[p, q]:
                continue
            lo = max(float(tps.starts[p]), float(tps.starts[q]))
            hi = min(float(tps.ends[p]), float(tps.ends[q]))
            if hi - lo < tau:  # the union can never reach τ
                continue
            dq = tps.metric.dists(tps.points, tps.points[q])
            witnesses = [
                (float(tps.starts[u]), float(tps.ends[u]))
                for u in np.nonzero((dp <= threshold) & (dq <= threshold))[0]
                if u != p and u != q
            ]
            if max_kappa_coverage(witnesses, (lo, hi), kappa) >= tau:
                out.add((p, q))
    return out
