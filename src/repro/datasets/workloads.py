"""Named end-to-end workloads used by the examples and benchmarks.

Each returns a ready :class:`~repro.types.TemporalPointSet` modelling
one of the paper's motivating applications (Examples 1.1 and 1.2), plus
a generic benchmark workload with tunable density.
"""

from __future__ import annotations

import inspect
import numbers
from typing import Any, Mapping, Optional

from ..errors import MetricError, ValidationError
from ..geometry.metrics import get_metric
from ..types import TemporalPointSet
from .synthetic import clustered_points, manifold_points, uniform_points
from .temporal_gen import career_lifespans, session_lifespans, uniform_lifespans

__all__ = [
    "social_forum_workload",
    "coauthorship_workload",
    "benchmark_workload",
    "workload_from_spec",
]


def social_forum_workload(
    n: int = 500,
    n_communities: int = 10,
    seed: Optional[int] = 0,
    metric: str = "l2",
) -> TemporalPointSet:
    """Example 1.1: users embedded by profile similarity, with daily
    session lifespans.  Durable triangles/cliques are groups of similar
    users simultaneously active for a long stretch."""
    pts = clustered_points(
        n, dim=2, n_clusters=n_communities, box=8.0, cluster_std=0.4, seed=seed
    )
    starts, ends = session_lifespans(n, seed=seed)
    return TemporalPointSet(pts, starts, ends, metric=metric)


def coauthorship_workload(
    n: int = 400,
    intrinsic_dim: int = 2,
    ambient_dim: int = 6,
    seed: Optional[int] = 0,
    metric: str = "l2",
) -> TemporalPointSet:
    """Example 1.2: researchers on a low-dimensional topic manifold in a
    higher-dimensional embedding space, with career-length lifespans.
    Aggregate-durable pairs are coauthors with sustained shared
    collaborators."""
    pts = manifold_points(
        n, intrinsic_dim=intrinsic_dim, ambient_dim=ambient_dim, extent=7.0, seed=seed
    )
    starts, ends = career_lifespans(n, seed=seed)
    return TemporalPointSet(pts, starts, ends, metric=metric)


def benchmark_workload(
    n: int,
    dim: int = 2,
    density: float = 12.0,
    horizon: float = 60.0,
    max_len: float = 20.0,
    seed: Optional[int] = 0,
    metric: str = "l2",
) -> TemporalPointSet:
    """Uniform workload with ~``density`` expected unit-ball neighbours.

    The box side is chosen so the expected number of points within unit
    distance of a point stays constant as ``n`` grows — keeping OUT
    roughly linear in ``n``, the regime where near-linear total time is
    the predicted shape (experiment E1).
    """
    import numpy as np

    # Solve box^dim * density = n * unit_ball_volume (l2 ball).
    from math import gamma, pi

    ball_vol = pi ** (dim / 2) / gamma(dim / 2 + 1)
    box = (n * ball_vol / density) ** (1.0 / dim)
    pts = uniform_points(n, dim=dim, box=max(box, 1.0), seed=seed)
    starts, ends = uniform_lifespans(
        n, horizon=horizon, min_len=1.0, max_len=max_len, seed=seed
    )
    return TemporalPointSet(pts, starts, ends, metric=metric)


#: Largest ``n`` a declarative spec may request (specs arrive from
#: batch files and ``POST /datasets``; this bounds generator memory).
MAX_WORKLOAD_POINTS = 1_000_000

#: Named workloads resolvable from a declarative dataset spec
#: (``uniform`` is an alias kept for CLI compatibility).
_NAMED_WORKLOADS = {
    "uniform": benchmark_workload,
    "benchmark": benchmark_workload,
    "social": social_forum_workload,
    "coauthor": coauthorship_workload,
}


def workload_from_spec(spec: Mapping[str, Any]) -> TemporalPointSet:
    """Materialise a dataset from a declarative spec (batch files, CLI).

    Recognised keys:

    * ``csv`` — path to ``x1..xd,start,end`` rows; every other key but
      ``metric`` is rejected;
    * ``workload`` — one of ``uniform``/``benchmark``/``social``/
      ``coauthor`` (default ``uniform``), plus any keyword the chosen
      generator accepts (``n``, ``seed``, ``density``, …);
    * ``metric`` — metric name passed through (default ``l2``).

    Specs may come from untrusted clients, so every malformed value
    raises :class:`~repro.errors.ValidationError`: ``n`` must be an
    integer in ``[1, MAX_WORKLOAD_POINTS]``, and a CSV that cannot be
    loaded gets a message that does not quote the file's content.
    """
    if not isinstance(spec, Mapping):
        raise ValidationError(f"dataset spec must be a mapping, got {spec!r}")
    params = dict(spec)
    try:
        metric = get_metric(params.pop("metric", "l2"))
    except MetricError as exc:
        raise ValidationError(str(exc)) from exc
    csv = params.pop("csv", None)
    if csv is not None:
        if params:
            raise ValidationError(
                f"csv datasets accept only 'metric', got extra keys {sorted(params)}"
            )
        if not isinstance(csv, str):
            raise ValidationError(f"'csv' must be a file path, got {csv!r}")
        import numpy as np

        try:
            rows = np.loadtxt(csv, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            # Deliberately generic: parse errors quote the file's content.
            raise ValidationError(f"cannot load CSV dataset {csv!r}") from exc
        if rows.shape[1] < 3:
            raise ValidationError("CSV needs at least x,start,end columns")
        return TemporalPointSet(
            rows[:, :-2], rows[:, -2], rows[:, -1], metric=metric
        )
    name = params.pop("workload", "uniform")
    fn = _NAMED_WORKLOADS.get(name)
    if fn is None:
        raise ValidationError(
            f"unknown workload {name!r}; expected one of "
            f"{sorted(set(_NAMED_WORKLOADS))} (or a 'csv' path)"
        )
    params.setdefault("n", 400)
    allowed = set(inspect.signature(fn).parameters)
    unknown = set(params) - allowed
    if unknown:
        raise ValidationError(
            f"workload {name!r} does not accept {sorted(unknown)}; "
            f"valid keys: {sorted(allowed)}"
        )
    n = params["n"]
    if not (
        isinstance(n, numbers.Integral)
        and not isinstance(n, bool)
        and 1 <= n <= MAX_WORKLOAD_POINTS
    ):
        raise ValidationError(
            f"n must be an integer in [1, {MAX_WORKLOAD_POINTS}], got {n!r}"
        )
    try:
        return fn(metric=metric, **params)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad {name!r} workload parameters: {exc}") from exc
