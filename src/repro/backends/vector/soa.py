"""Structure-of-arrays snapshots and grid-cell layouts (the ``vector`` backend).

The legacy backends walk per-point object graphs; the vector backend
flattens everything the solvers touch into contiguous numpy arrays once
per ``(dataset fingerprint, cell side)`` and answers every query with
batched kernels over that layout:

* :class:`SoALayout` — the SoA snapshot of a
  :class:`~repro.types.TemporalPointSet`: ``(n, d)`` float64 coords,
  ``(n,)`` start/end arrays, plus a CSR grid-cell layout built with
  ``np.floor`` / ``np.lexsort`` / ``np.unique`` (cells in lexicographic
  key order — the exact order a fresh
  :class:`~repro.quadtree.tree.GridDecomposition` sorts its cells in).
  Within each cell two permutations are kept: member-id ascending (the
  canonical ``member_ids`` order) and ``(end desc, id asc)`` (the
  partner-enumeration order of ``RunSet.iter_desc_by_end``), the latter
  with a contiguous sorted-endpoint array so τ-stabbing prefixes come
  from one ``np.searchsorted``.
* :func:`layout_for` — a small process-wide cache so the four query
  families sharing one ``(fingerprint, ε)`` build the layout once.
* :class:`VectorGridDecomposition` — a
  :class:`~repro.quadtree.tree.GridDecomposition` whose construction is
  vectorised from the layout arrays; groups, centers and ``group_of``
  are value-identical to a fresh legacy build (asserted in tests), so
  the inherited geometry (``candidate_groups``, ``linked_groups``)
  applies unchanged.
* blocked distance kernels (:func:`pairwise_dists`,
  :func:`rowwise_dists`) reproducing the exact per-metric arithmetic of
  :mod:`repro.geometry.metrics`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from ...errors import BackendError, ValidationError
from ...geometry.metrics import Metric, get_metric
from ...quadtree.tree import GridDecomposition
from ...structures.decomposition import CanonicalGroup
from ...types import TemporalPointSet

__all__ = [
    "SoALayout",
    "layout_for",
    "VectorGridDecomposition",
    "pairwise_dists",
    "rowwise_dists",
    "ragged_arange",
]

#: Soft cap on elements of any one broadcast distance matrix; blocks are
#: sized so ``rows × cols ≤ BLOCK_ELEMS`` (× dim for the diff tensor).
BLOCK_ELEMS = 1 << 21


def ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for parallel starts/counts arrays."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    cum = np.cumsum(counts) - counts
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(cum, counts)
        + np.repeat(np.asarray(starts, dtype=np.int64), counts)
    )


# ----------------------------------------------------------------------
# Distance kernels
# ----------------------------------------------------------------------
def pairwise_dists(metric: Metric, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(len(a), len(b))`` distance matrix, same arithmetic as ``metric.dists``."""
    diff = np.abs(a[:, None, :] - b[None, :, :])
    alpha = getattr(metric, "alpha", None)
    if alpha is None:  # Chebyshev
        return diff.max(axis=-1)
    if alpha == 2.0:
        return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    if alpha == 1.0:
        return diff.sum(axis=-1)
    return (diff**alpha).sum(axis=-1) ** (1.0 / alpha)


def rowwise_dists(metric: Metric, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between corresponding rows of equal-shape ``a`` and ``b``."""
    diff = np.abs(a - b)
    alpha = getattr(metric, "alpha", None)
    if alpha is None:
        return diff.max(axis=-1)
    if alpha == 2.0:
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    if alpha == 1.0:
        return diff.sum(axis=-1)
    return (diff**alpha).sum(axis=-1) ** (1.0 / alpha)


# ----------------------------------------------------------------------
# Cell bucketing
# ----------------------------------------------------------------------
def _bucket_cells(
    pts: np.ndarray, side: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(cell_keys, cell_of, offsets, order_id)`` for a point array.

    ``cell_keys`` rows ascend lexicographically (``np.unique``'s row
    order — identical to the ``sorted(cells)`` order of the legacy grid
    build), ``cell_of`` maps each point to its cell index, ``order_id``
    concatenates per-cell members in ascending id, and ``offsets`` is
    the CSR boundary array.
    """
    coords = np.floor(pts / side).astype(np.int64)
    cell_keys, cell_of = np.unique(coords, axis=0, return_inverse=True)
    cell_of = np.ascontiguousarray(cell_of.reshape(-1), dtype=np.int64)
    counts = np.bincount(cell_of, minlength=len(cell_keys))
    offsets = np.zeros(len(cell_keys) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    order_id = np.argsort(cell_of, kind="stable").astype(np.int64)
    return cell_keys, cell_of, offsets, order_id


class SoALayout:
    """SoA snapshot of one point set under one grid resolution."""

    __slots__ = (
        "points",
        "starts",
        "ends",
        "side",
        "n",
        "dim",
        "n_cells",
        "cell_keys",
        "cell_of",
        "centers",
        "counts",
        "offsets",
        "order_id",
        "order_end",
        "neg_ends_by_cell",
        "starts_by_cell",
    )

    def __init__(self, tps: TemporalPointSet, side: float) -> None:
        self.points = np.ascontiguousarray(tps.points, dtype=np.float64)
        self.starts = np.ascontiguousarray(tps.starts, dtype=np.float64)
        self.ends = np.ascontiguousarray(tps.ends, dtype=np.float64)
        self.side = float(side)
        self.n, self.dim = self.points.shape
        cell_keys, cell_of, offsets, order_id = _bucket_cells(self.points, self.side)
        self.cell_keys = cell_keys
        self.cell_of = cell_of
        self.counts = np.diff(offsets)
        self.offsets = offsets
        self.order_id = order_id
        self.n_cells = len(cell_keys)
        # Same arithmetic as the legacy grid's per-cell center.
        self.centers = (cell_keys.astype(np.float64) + 0.5) * self.side
        # Per-cell (end desc, id asc) permutation — the partner order of
        # RunSet.iter_desc_by_end — with contiguous sorted endpoints so
        # the τ-stab prefix is one searchsorted per cell.
        ids = np.arange(self.n, dtype=np.int64)
        self.order_end = np.lexsort((ids, -self.ends, cell_of)).astype(np.int64)
        self.neg_ends_by_cell = -self.ends[self.order_end]
        self.starts_by_cell = self.starts[self.order_end]

    # ------------------------------------------------------------------
    def partners(
        self, gi: int, anchor: int, sp: float, threshold: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``durableBallQ`` members of cell ``gi`` for one anchor.

        Returns ``(ids, ends)`` in ``(end desc, id asc)`` order: every
        member with ``end ≥ threshold`` and
        ``(start, id) <lex (sp, anchor)``.
        """
        lo, hi = int(self.offsets[gi]), int(self.offsets[gi + 1])
        # Ends are descending on the segment, so the τ-stab is a prefix.
        k = int(
            np.searchsorted(self.neg_ends_by_cell[lo:hi], -threshold, side="right")
        )
        if k == 0:
            return _EMPTY_IDS, _EMPTY_ENDS
        qs = self.order_end[lo : lo + k]
        ss = self.starts_by_cell[lo : lo + k]
        keep = (ss < sp) | ((ss == sp) & (qs < anchor))
        sel = qs[keep]
        return sel, -self.neg_ends_by_cell[lo : lo + k][keep]

    def cell_members(self, gi: int) -> np.ndarray:
        """Member ids of one cell, ascending."""
        return self.order_id[int(self.offsets[gi]) : int(self.offsets[gi + 1])]


_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_ENDS = np.empty(0, dtype=np.float64)


# ----------------------------------------------------------------------
# Layout cache
# ----------------------------------------------------------------------
_CACHE_LOCK = threading.Lock()
_CACHE_MAX = 8
_LAYOUT_CACHE: "OrderedDict[tuple, SoALayout]" = OrderedDict()


def layout_for(tps: TemporalPointSet, side: float) -> SoALayout:
    """The (cached) layout of a point set at one cell side.

    Keyed by ``(dataset fingerprint, side)`` — the fingerprint already
    folds coords, lifespans, metric token and ingestion epoch — so the
    four index families sharing one ``(fingerprint, ε)`` build the
    arrays once.  A tiny LRU bounds the footprint.
    """
    key = (tps.fingerprint(), float(side))
    with _CACHE_LOCK:
        cached = _LAYOUT_CACHE.get(key)
        if cached is not None:
            _LAYOUT_CACHE.move_to_end(key)
            return cached
    built = SoALayout(tps, side)
    with _CACHE_LOCK:
        _LAYOUT_CACHE[key] = built
        _LAYOUT_CACHE.move_to_end(key)
        while len(_LAYOUT_CACHE) > _CACHE_MAX:
            _LAYOUT_CACHE.popitem(last=False)
    return built


# ----------------------------------------------------------------------
# Decomposition
# ----------------------------------------------------------------------
class VectorGridDecomposition(GridDecomposition):
    """A :class:`GridDecomposition` built by array kernels.

    Groups, centers and ``group_of`` are value-identical to the legacy
    constructor's (cells in lexicographic order, members ascending,
    ``(key + 0.5) · side`` centers), so the inherited
    ``candidate_groups`` / ``linked_groups`` behave identically.
    Appends build a new decomposition over the merged layout
    (:meth:`~repro.backends.vector.structure.VectorBallStructure.extended`).
    """

    def __init__(self, points, metric, resolution, _layout: Optional[SoALayout] = None):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or len(pts) == 0:
            raise ValidationError("points must be a non-empty (n, d) array")
        m = get_metric(metric)
        if not m.supports_grid:
            raise BackendError(
                f"grid decomposition requires an lp metric, got {m.name!r}"
            )
        if resolution <= 0:
            raise ValidationError(f"resolution must be positive, got {resolution!r}")
        self.points = pts
        self.metric = m
        self.resolution = float(resolution)
        self.side = m.cell_side_for_diameter(2.0 * resolution, pts.shape[1])
        if _layout is not None:
            cell_keys, cell_of = _layout.cell_keys, _layout.cell_of
            offsets, order_id = _layout.offsets, _layout.order_id
            centers = _layout.centers
        else:
            cell_keys, cell_of, offsets, order_id = _bucket_cells(pts, self.side)
            centers = (cell_keys.astype(np.float64) + 0.5) * self.side
        self.groups = [
            CanonicalGroup(
                index=i,
                rep=centers[i],
                radius_bound=self.resolution,
                member_ids=order_id[offsets[i] : offsets[i + 1]].tolist(),
            )
            for i in range(len(cell_keys))
        ]
        self.group_of = cell_of.copy()
        self._centers = centers
