"""Temporal substrates: intervals, lifespans, and the index structures
built over them (Sections 1.1, 2.1, 2.2, 5)."""

from .interval import EMPTY_INTERVAL, Interval, intersect_many, union_length
from .interval_set import IntervalSet
from .dominance import DominanceIndex, Run, RunSet
from .sum_index import CoverageProfile
from .max_overlap import MaxOverlapIndex, OverlapCandidate

__all__ = [
    "EMPTY_INTERVAL",
    "Interval",
    "intersect_many",
    "union_length",
    "IntervalSet",
    "DominanceIndex",
    "Run",
    "RunSet",
    "CoverageProfile",
    "MaxOverlapIndex",
    "OverlapCandidate",
]
