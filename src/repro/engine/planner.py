"""Query planning: map specs onto executable plans over shared indexes.

``plan_batch`` turns ``(TemporalPointSet, [QuerySpec, …])`` into
:class:`QueryPlan` objects carrying everything the executor needs.
Planning is pure — no index is built here — so a plan can also be
inspected to predict how many distinct builds a batch will trigger
(:func:`distinct_index_keys`).

Dispatch goes by kind: ``pattern-dsl`` specs are compiled by
:func:`repro.lang.compiler.compile_pattern`; every other kind goes
through the backend registry (:mod:`repro.backends`):
:meth:`~repro.backends.registry.BackendRegistry.resolve` validates the
kind/backend/metric combination, resolves ``backend="auto"`` through
the cost model (exact ℓ∞ promotion included), and the chosen
descriptor's hooks emit the cache key and builder.  The emitted
:class:`~repro.engine.cache.IndexKey` values are pinned by
``tests/test_backends.py::TestKeyStability``.

A plan comes in two shapes, told apart by ``stages``:

* **stage-less** (the legacy kinds): the executor builds/fetches
  ``plan.key`` and calls ``runner(index, tau)``;
* **staged** (``pattern-dsl``): each
  :class:`PlanStage` names one shared index; the executor acquires all
  of them through the same single-flight cache — so a composite plan's
  sub-indexes are shared with any legacy query that uses them — and
  calls ``runner({stage_name: index, …}, tau)``.  Each DSL leaf is
  planned by :func:`plan_query` as its legacy kind, so a stage's key,
  builder and per-τ call are the legacy plan's own.

:meth:`QueryPlan.acquisitions` lists what either shape acquires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..backends.registry import BackendRegistry, default_registry
from ..errors import ValidationError
from ..types import TemporalPointSet
from .cache import IndexKey
from .spec import DSL_KIND, PATTERN_KINDS, QuerySpec

__all__ = [
    "PlanStage",
    "QueryPlan",
    "plan_query",
    "plan_batch",
    "distinct_index_keys",
    "runner_for",
]


@dataclass(frozen=True)
class PlanStage:
    """One shared index a staged plan depends on."""

    name: str
    key: IndexKey
    builder: Callable[[], Any]


@dataclass(frozen=True)
class QueryPlan:
    """One executable query: spec + shared-index identity + callables.

    The first five fields are the historical positional layout —
    downstream code (and tests) construct plans positionally, so new
    fields append with defaults.  For stage-less plans ``runner`` takes
    ``(index, tau)``; for staged plans it takes
    ``({stage_name: index}, tau)``.
    """

    order: int
    spec: QuerySpec
    key: IndexKey
    builder: Callable[[], Any]
    runner: Callable[[Any, float], list]
    stages: Tuple[PlanStage, ...] = field(default=())

    def acquisitions(self) -> Tuple[PlanStage, ...]:
        """The shared indexes to acquire: the stages, or the plan's own.

        A stage-less plan acquires ``key``/``builder`` as one unnamed
        stage; the composite key of a staged plan is a reporting
        identity, never a build.
        """
        return self.stages or (PlanStage("", self.key, self.builder),)


def runner_for(spec: QuerySpec) -> Callable[[Any, float], list]:
    """The per-τ report call — kind-specific, backend-agnostic.

    Every backend serving a kind exposes the same query surface
    (``query(tau)``, ``query(tau, kappa)``, or the pattern iterators),
    so runners key on the spec alone and a cached index answers any
    spec that shares its key.
    """
    if spec.kind == "pairs-union":
        kappa = spec.kappa
        return lambda index, tau: index.query(tau, kappa)
    if spec.kind in PATTERN_KINDS:
        m = spec.m
        iter_name = {
            "cliques": "iter_cliques",
            "paths": "iter_paths",
            "stars": "iter_stars",
        }[spec.kind]
        return lambda index, tau: list(getattr(index, iter_name)(m, tau))
    return lambda index, tau: index.query(tau)


def plan_query(
    order: int,
    spec: QuerySpec,
    tps: TemporalPointSet,
    registry: Optional[BackendRegistry] = None,
) -> QueryPlan:
    """Resolve one spec against a dataset (validates, never builds).

    ``registry`` (defaulting to the process-wide backend registry)
    scopes backend dispatch — and any custom backends or recalibrated
    cost model — to this call.
    """
    if spec.kind == DSL_KIND:
        # Imported lazily: the engine package must not hard-depend on
        # the language package at import time.
        from ..lang.compiler import compile_pattern

        return compile_pattern(order, spec, tps, registry)
    reg = registry if registry is not None else default_registry()
    descriptor = reg.resolve(spec, tps).descriptor
    return QueryPlan(
        order=order,
        spec=spec,
        key=descriptor.index_identity(spec, tps.fingerprint()),
        builder=descriptor.make_builder(spec, tps),
        runner=runner_for(spec),
    )


def plan_batch(
    specs: Sequence[QuerySpec],
    tps: TemporalPointSet,
    registry: Optional[BackendRegistry] = None,
) -> List[QueryPlan]:
    """Plan every spec of a batch against one dataset.

    Validation errors carry the batch position so a bad entry in a
    40-query file is easy to locate.
    """
    plans: List[QueryPlan] = []
    for order, spec in enumerate(specs):
        try:
            plans.append(plan_query(order, spec, tps, registry=registry))
        except ValidationError as exc:
            raise ValidationError(f"query #{order}: {exc}") from exc
    return plans


def distinct_index_keys(plans: Sequence[QueryPlan]) -> Tuple[IndexKey, ...]:
    """The distinct indexes a batch will build (in first-use order)."""
    return tuple(
        dict.fromkeys(stage.key for plan in plans for stage in plan.acquisitions())
    )
