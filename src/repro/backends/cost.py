"""The cost model behind ``backend="auto"`` dispatch.

Selection is a *measured* decision, not a hardcoded rule: every
candidate backend gets an estimated wall-clock cost for the query at
hand — one index build plus one report per requested τ — and the
cheapest eligible candidate wins (exact backends, which return no
ε-extras, are preferred outright; see
:meth:`repro.backends.registry.BackendRegistry.resolve`).

The estimate is deliberately coarse::

    cost(backend) = unit · (build_coef + n_taus · query_coef)
    unit          = n · (log₂ n + 1) · max(dim, 1)

i.e. linear per-point work with the usual logarithmic factor and a
linear dimension penalty, scaled by two per-backend coefficients in
seconds per unit.  That shape cannot rank pathological inputs
perfectly, but it is monotone in everything that matters for dispatch
(input size, dimension, sweep length) and — crucially — the
coefficients are *calibratable*: ``benchmarks/bench_backends.py``
measures real build/query times per backend over several dataset
shapes, fits coefficients with :func:`fit_coefficients`, and writes
them into ``BENCH_backends.json``; :meth:`CostModel.from_bench` loads
them back.  The defaults below were produced by exactly that
procedure on the repository's synthetic workloads (n ∈ {200, 600},
dim 2, ℓ2/ℓ∞).

Everything here is a pure function of its inputs — no clocks, no
randomness — so ``auto`` resolution is deterministic for a fixed
dataset fingerprint (asserted by ``tests/test_backends.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, Mapping, Optional, Tuple

from ..errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.spec import QuerySpec
    from ..types import TemporalPointSet

__all__ = [
    "BackendCoefficients",
    "QueryFeatures",
    "CostModel",
    "DEFAULT_COEFFICIENTS",
    "fit_coefficients",
]


@dataclass(frozen=True)
class BackendCoefficients:
    """Per-backend cost coefficients, in seconds per cost unit.

    ``build`` prices one preprocessing pass, ``query`` one report (one
    τ).  Fitted by :func:`fit_coefficients`.
    """

    build: float
    query: float

    def as_dict(self) -> Dict[str, float]:
        return {"build": self.build, "query": self.query}


#: Calibrated via ``benchmarks/bench_backends.py`` (see module
#: docstring).  The relative ordering is what matters: the exact ℓ∞
#: range tree is the costliest build but a cheap (and the only exact)
#: reporter.  The ``vector`` row is from the n=5000 calibration run
#: behind ``BENCH_backends.json``: its SoA queries run ~3–17× below the
#: object-graph solvers over the same grid cells (query 1.5e-06 is the
#: fitted value) and its build is a handful of lexsorts — priced here at
#: the measured *cold* first build (the bench itself reports near-zero
#: because the layout is cached per dataset fingerprint).
DEFAULT_COEFFICIENTS: Mapping[str, BackendCoefficients] = {
    "cover-tree": BackendCoefficients(build=2.6e-06, query=1.1e-05),
    "linf-exact": BackendCoefficients(build=5.0e-06, query=6.0e-06),
    "vector": BackendCoefficients(build=1.1e-07, query=1.5e-06),
}

#: Used for backends the model has no coefficients for (e.g. a freshly
#: registered custom backend before calibration): priced like a generic
#: tree structure so it neither always wins nor always loses.
FALLBACK_COEFFICIENTS = BackendCoefficients(build=3.0e-06, query=1.2e-05)


@dataclass(frozen=True)
class QueryFeatures:
    """The dataset/query shape the cost model scores against."""

    n: int
    dim: int
    metric: str
    n_taus: int = 1

    @classmethod
    def of(
        cls, tps: "TemporalPointSet", spec: Optional["QuerySpec"] = None
    ) -> "QueryFeatures":
        return cls(
            n=int(tps.n),
            dim=int(tps.dim),
            metric=tps.metric.name,
            n_taus=len(spec.taus) if spec is not None else 1,
        )

    @property
    def unit(self) -> float:
        """``n · (log₂ n + 1) · max(dim, 1)`` — the model's work unit."""
        n = max(int(self.n), 1)
        return n * (math.log2(n) + 1.0) * max(int(self.dim), 1)


class CostModel:
    """Score backends against a query shape (pure, deterministic).

    Parameters
    ----------
    coefficients:
        ``name -> BackendCoefficients`` (or ``{"build": .., "query": ..}``
        mappings).  Missing names fall back to
        :data:`FALLBACK_COEFFICIENTS`; passing ``None`` uses the
        calibrated :data:`DEFAULT_COEFFICIENTS`.
    """

    def __init__(
        self,
        coefficients: Optional[Mapping[str, Any]] = None,
    ) -> None:
        source = DEFAULT_COEFFICIENTS if coefficients is None else coefficients
        self.coefficients: Dict[str, BackendCoefficients] = {
            name: self._coerce(name, c) for name, c in source.items()
        }

    @staticmethod
    def _coerce(name: str, value: Any) -> BackendCoefficients:
        if isinstance(value, BackendCoefficients):
            return value
        try:
            return BackendCoefficients(
                build=float(value["build"]), query=float(value["query"])
            )
        except (TypeError, KeyError, ValueError) as exc:
            raise ValidationError(
                f"cost coefficients for backend {name!r} must provide "
                f"numeric 'build' and 'query' entries, got {value!r}"
            ) from exc

    # ------------------------------------------------------------------
    def estimate(self, backend: str, features: QueryFeatures) -> float:
        """Estimated seconds for one build plus ``n_taus`` reports."""
        coef = self.coefficients.get(backend, FALLBACK_COEFFICIENTS)
        return features.unit * (coef.build + features.n_taus * coef.query)

    def placement_weight(
        self,
        features: QueryFeatures,
        backend_names: Optional[Iterable[str]] = None,
    ) -> float:
        """Rendezvous weight of one worker for one dataset shape.

        The routing tier places each dataset on a worker by weighted
        rendezvous hashing; this is the weight: the reciprocal of the
        cheapest estimated cost any backend the worker *hosts* could
        serve the shape at (``backend_names=None`` means the worker
        hosts everything this model knows about).  Faster workers —
        i.e. workers advertising a backend that is cheap for this
        shape — therefore attract proportionally more datasets, while
        staying a pure, deterministic function of ``(shape, backends)``
        so placement survives router restarts unchanged.
        """
        names = list(backend_names) if backend_names is not None else list(
            self.coefficients
        )
        if not names:
            # A worker advertising nothing is still placeable (the cost
            # model may simply not know its backends): fallback pricing.
            return 1.0 / max(
                features.unit
                * (FALLBACK_COEFFICIENTS.build + FALLBACK_COEFFICIENTS.query),
                1e-12,
            )
        best = min(self.estimate(name, features) for name in names)
        return 1.0 / max(best, 1e-12)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {name: c.as_dict() for name, c in self.coefficients.items()}

    # ------------------------------------------------------------------
    @classmethod
    def from_bench(cls, payload: Mapping[str, Any]) -> "CostModel":
        """Rebuild a model from a ``BENCH_backends.json`` document.

        Prefers the pre-fitted ``coefficients`` block; falls back to
        refitting from the raw ``measurements`` when absent.
        """
        if "coefficients" in payload:
            return cls(payload["coefficients"])
        if "measurements" in payload:
            return cls(fit_coefficients(payload["measurements"]))
        raise ValidationError(
            "bench payload has neither 'coefficients' nor 'measurements'"
        )


def fit_coefficients(
    measurements: Iterable[Mapping[str, Any]],
) -> Dict[str, BackendCoefficients]:
    """Least-effort calibration: average observed seconds-per-unit.

    Each measurement is ``{"backend", "n", "dim", "n_taus",
    "build_seconds", "query_seconds"}`` (the rows
    ``benchmarks/bench_backends.py`` emits).  With the model linear in
    the work unit, the per-row coefficient is just ``seconds / unit``;
    averaging across shapes smooths constant-factor noise.
    """
    sums: Dict[str, Tuple[float, float, int]] = {}
    for row in measurements:
        features = QueryFeatures(
            n=int(row["n"]),
            dim=int(row["dim"]),
            metric=str(row.get("metric", "")),
            n_taus=int(row.get("n_taus", 1)),
        )
        unit = features.unit
        b = float(row["build_seconds"]) / unit
        q = float(row["query_seconds"]) / (unit * max(features.n_taus, 1))
        prev_b, prev_q, count = sums.get(str(row["backend"]), (0.0, 0.0, 0))
        sums[str(row["backend"])] = (prev_b + b, prev_q + q, count + 1)
    if not sums:
        raise ValidationError("cannot fit cost coefficients from zero measurements")
    return {
        name: BackendCoefficients(build=b / count, query=q / count)
        for name, (b, q, count) in sums.items()
    }
