"""The end-to-end benchmark's reads of the library still resolve.

``benchmarks/e2e/trace.py`` wraps every callable its ``TARGETS`` table
names by replacing ``owner.__dict__[attribute]``; ``install()`` fails on
the first missing one.  This test resolves each entry the same way, so
renaming or deleting a traced callable fails here rather than only in a
traced benchmark run.  The same goes for the other library surfaces the
harness reads: ``workloads.harvest_plan`` on a returned result (every
group's ``method`` / ``backend`` / predicted and elapsed seconds) and
the ``repro.linalg`` probe of ``layers.spmm_probe``.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

_E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
_TRACE = _E2E / "trace.py"


def _load(path: Path, name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # registered first: its dataclasses resolve annotations through it
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _targets():
    return _load(_TRACE, "e2e_trace").TARGETS


@pytest.mark.parametrize(
    "target", _targets(), ids=lambda target: f"{target[0]}:{target[3]}"
)
def test_target_resolves(target):
    _name, module_name, class_name, attribute, is_async = target
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
    assert attribute in owner.__dict__, (
        f"{module_name}.{class_name or ''} has no {attribute!r}"
    )
    original = owner.__dict__[attribute]
    assert callable(original)
    assert inspect.iscoroutinefunction(original) == is_async


def _harvest_checked(result):
    harvested = _load(_E2E / "workloads.py", "e2e_workloads").harvest_plan(
        result
    )
    assert harvested["groups"]
    for method, backend, predicted, elapsed in harvested["groups"]:
        assert method in ("qb", "ob", "mc", "ct")
        assert backend == "scipy"
        assert predicted is not None and elapsed is not None
    assert harvested["operators"]
    assert harvested["stages"][-1][0] == "evaluate"
    return harvested


@pytest.fixture(scope="module")
def database():
    from repro.workloads.synthetic import (
        SyntheticConfig,
        make_synthetic_database,
    )

    return make_synthetic_database(
        SyntheticConfig(n_objects=30, n_states=200, seed=3)
    )


def _query(database):
    from repro import PSTExistsQuery, SpatioTemporalWindow

    return PSTExistsQuery(
        SpatioTemporalWindow.from_ranges(90, 110, 4, 7)
    )


def test_harvest_plan_reads_an_evaluate_result(database):
    from repro import QueryEngine

    result = QueryEngine(database).evaluate(_query(database))
    assert _harvest_checked(result)["dispatch"] == "serial"


def test_harvest_plan_reads_a_store_backed_result(database, tmp_path):
    from repro import PlanOptions, QueryEngine
    from repro.exec import dispatch
    from repro.store.sharded import ShardedTrajectoryStore

    store = ShardedTrajectoryStore.create(
        tmp_path / "store", database, shards_per_chain=2
    )
    try:
        result = QueryEngine(store).evaluate(
            _query(database),
            options=PlanOptions(dispatch="process", max_workers=2),
        )
        harvested = _harvest_checked(result)
    finally:
        dispatch.shutdown()
    assert harvested["dispatch"] == "process"
    assert harvested["store_stats"]["shards"] > 0


def test_linalg_probe_resolves(database):
    from repro.linalg import available_backends, spmm

    assert "scipy" in available_backends()
    matrix = database.chain().matrix
    block = np.random.default_rng(0).random((matrix.shape[1], 8))
    np.testing.assert_array_equal(
        spmm(matrix, block, backend="scipy"), matrix @ block
    )
