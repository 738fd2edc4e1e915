"""Every name a module exports in ``__all__`` exists in that module."""

import importlib
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
