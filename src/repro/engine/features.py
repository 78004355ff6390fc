"""Execution features: the one scoped switchboard of the engine's fast paths.

Every optimisation that has a reference path behind it is a field of
:class:`ExecutionFeatures`; the reference stays reachable as a test oracle by
turning the field off for a scope::

    with use_features(zone_pruning=False, code_domain=False):
        reference = session.sql(query)

The features live in one :class:`contextvars.ContextVar`, so an override is
scoped to the ``with`` block (and to the thread or task that entered it) and
is never process-wide.  Readers call :func:`current_features` at the point of
use.  Fields:

``zone_pruning``
    Scans skip partitions whose zone synopses prove a predicate empty.
``code_domain``
    Column-store predicates compile to dictionary-code masks instead of
    decode-and-compare.
``aggregate_pushdown``
    Aggregations run below the generic operator (zero-scan, partition
    partials, code-domain tiers) instead of decode-then-reduce.
``delta_writes``
    Column-store inserts append to the uncompressed delta instead of
    encoding inline into main.  A delta already buffered keeps serving
    reads: the field governs where new writes go, not how rows are read.
``matview``
    The session answers matching aggregations from materialized views.
``integrity``
    Column-store units are checksum-verified on first read per zone epoch
    and by the scrubber.  Quarantine already recorded keeps raising.
``shard_min_rows``
    Tables below this row count are never recommended a shard key by the
    advisor's what-if.

Every fast path charges :class:`~repro.engine.timing.CostBreakdown`
bit-identically to its reference, so turning a field off changes wall clock
and telemetry, never results or simulated cost.

Plan-recorded decisions (:class:`Decision`) carry the features they were
derived under in their staleness token, so a cached plan re-derives its scan
and aggregate decisions after any feature change.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Any, Iterator

__all__ = ["Decision", "ExecutionFeatures", "current_features", "use_features"]


@dataclass(frozen=True)
class ExecutionFeatures:
    """Which fast paths the engine may take (all on by default)."""

    zone_pruning: bool = True
    code_domain: bool = True
    aggregate_pushdown: bool = True
    delta_writes: bool = True
    matview: bool = True
    integrity: bool = True
    shard_min_rows: int = 200_000


_FEATURES: ContextVar[ExecutionFeatures] = ContextVar(
    "execution_features", default=ExecutionFeatures()
)

#: The :class:`ExecutionFeatures` in effect for the calling context.
current_features = _FEATURES.get


@contextmanager
def use_features(**changes: Any) -> Iterator[ExecutionFeatures]:
    """Override *changes* for the ``with`` block; an unknown name raises ``TypeError``."""
    token = _FEATURES.set(replace(_FEATURES.get(), **changes))
    try:
        yield _FEATURES.get()
    finally:
        _FEATURES.reset(token)


class Decision:
    """Base of the plan-recorded decisions of an access path.

    A decision was derived for one *key* (a predicate or an aggregation
    query, named by :attr:`key_field`) under one ``token``: the
    :class:`ExecutionFeatures` in effect followed by the zone epochs of the
    physical parts it consulted.  It governs a later execution only while
    both still match; otherwise the access path re-derives it.
    """

    key_field = ""
    token: tuple

    def matches(self, key: Any, token: tuple) -> bool:
        """Whether this decision still governs *key* under *token*."""
        if self.token != token:
            return False
        own = getattr(self, self.key_field)
        if own is key:
            return True
        try:
            return own == key
        except Exception:  # pragma: no cover - exotic __eq__ definitions
            return False
