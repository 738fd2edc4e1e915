"""Every name a module exports in ``__all__`` exists in that module, and
the query protocol keeps its one batch path."""

import importlib
import inspect
import pkgutil

import pytest

import medianlab

MODULES = ["medianlab"] + sorted(
    f"medianlab.{name}" for _, name, _ in pkgutil.iter_modules(medianlab.__path__) if name != "__main__"
)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_backings_answer_only_in_batches():
    # GluedMetric.distance stays as a binding that perfbench/tracer.py wraps
    per_pair = [
        f"{module}.{name}"
        for module in MODULES
        for name, cls in inspect.getmembers(importlib.import_module(module), inspect.isclass)
        if cls.__module__ == module and "distance" in vars(cls)
    ]
    assert per_pair == ["medianlab.lowerbound.GluedMetric"]
    assert not hasattr(importlib.import_module("medianlab.metric"), "query_each")
