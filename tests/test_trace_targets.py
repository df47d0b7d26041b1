"""The end-to-end tracer's targets exist in the library.

``benchmarks/e2e/trace.py`` wraps every callable its ``TARGETS`` table
names by replacing ``owner.__dict__[attribute]``; ``install()`` fails on
the first missing one.  This test resolves each entry the same way, so
renaming or deleting a traced callable fails here rather than only in a
traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "trace.py"


def _targets():
    spec = importlib.util.spec_from_file_location("e2e_trace", _TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


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
