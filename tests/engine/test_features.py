"""Execution features: one scoped override mechanism, keyed into every cache.

* every field of :class:`ExecutionFeatures` overrides through
  :func:`use_features` alike — overrides nest, the previous value comes
  back when the body raises, and an unknown field raises ``TypeError``;
* no engine module grows its own ``*_disabled()``/``*_enabled()`` toggle
  again;
* a features change reaches the planner's estimates: neither the cost
  model's estimate memo nor the session plan cache serves an estimate
  derived under other features.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import re
import threading

import pytest

import repro.engine
from repro.api import connect
from repro.engine.features import ExecutionFeatures, current_features, use_features
from repro.engine.schema import Column, TableSchema
from repro.engine.types import DataType, Store

FIELDS = [spec.name for spec in dataclasses.fields(ExecutionFeatures)]


def _other(value):
    return (not value) if isinstance(value, bool) else value // 2


@pytest.mark.parametrize("name", FIELDS)
def test_override_nests_restores_and_rejects_unknown_fields(name):
    default = getattr(ExecutionFeatures(), name)
    changed = _other(default)
    assert getattr(current_features(), name) == default
    with use_features(**{name: changed}) as features:
        assert getattr(features, name) == changed
        assert getattr(current_features(), name) == changed
        with use_features(**{name: default}):
            assert getattr(current_features(), name) == default
        assert getattr(current_features(), name) == changed
        # The override is scoped to this context: another thread sees defaults.
        seen = []
        thread = threading.Thread(
            target=lambda: seen.append(getattr(current_features(), name))
        )
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive() and seen == [default]
    assert current_features() == ExecutionFeatures()

    with pytest.raises(RuntimeError):
        with use_features(**{name: changed}):
            raise RuntimeError("boom")
    assert current_features() == ExecutionFeatures()

    with pytest.raises(TypeError):
        with use_features(**{name + "_typo": changed}):
            pass  # pragma: no cover - never entered
    assert current_features() == ExecutionFeatures()


def test_no_engine_module_defines_its_own_toggle():
    pattern = re.compile(r"_(disabled|enabled)$")
    offenders = []
    for info in pkgutil.walk_packages(repro.engine.__path__, "repro.engine."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and pattern.search(name)
            ):
                offenders.append(f"{module.__name__}.{name}")
    assert offenders == []


SCHEMA = TableSchema(
    "t",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("v", DataType.INTEGER),
    ),
)
FILTERED_READ = "SELECT sum(v) FROM t WHERE v > 1000"


def _session():
    session = connect()
    session.create_table(SCHEMA, Store.COLUMN)
    session.load_rows("t", [{"id": i, "v": i % 1000} for i in range(20_000)])
    return session


@pytest.mark.parametrize("first_pruned", [True, False])
def test_estimates_follow_a_features_change(first_pruned):
    """A plan estimated under one setting is never served under the other.

    The filtered read is provably empty from the zone synopses, so zone
    pruning lowers its estimate; both the cost model's memo and the session
    plan cache must notice the flip in either order.
    """
    session = _session()

    def estimate(pruned, target=session):
        with use_features(zone_pruning=pruned):
            return target.plan_for(FILTERED_READ).estimated_ms

    first = estimate(first_pruned)
    second = estimate(not first_pruned)
    assert first == estimate(first_pruned, _session())
    assert second == estimate(not first_pruned, _session())
    pruned, unpruned = (first, second) if first_pruned else (second, first)
    assert pruned < unpruned
    session.close()


def test_any_feature_change_rederives_scan_and_aggregate_decisions():
    """Both decision kinds share one token: features first, then zone epochs."""
    session = _session()
    plan = session.plan_for("SELECT count(*) FROM t WHERE v > 1000")
    path, query = plan.paths["t"], plan.logical.query
    for name in FIELDS:
        scan = path.decision_for(query.predicate)
        strategy = path.aggregate_decision_for(query)
        assert path.decision_for(query.predicate) is scan
        assert path.aggregate_decision_for(query) is strategy
        with use_features(**{name: _other(getattr(ExecutionFeatures(), name))}):
            assert path.decision_for(query.predicate) is not scan
            assert path.aggregate_decision_for(query) is not strategy
    session.close()
