"""The benchmark's tracer must still find every binding it wraps.

``perfbench/tracer.py`` swaps named module and class attributes of
medianlab for timing wrappers.  Deleting or renaming one of those
bindings breaks the traced benchmark run, so this test installs the
tracer, checks that every binding was wrapped, and checks that
``uninstall`` puts each original object back.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binding(tracer, target, attr):
    owner = tracer._resolve(target)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_wraps_and_restores_every_layer_binding():
    tracer = _load_tracer()
    bindings = [(target, attr) for pairs in tracer.LAYERS.values() for target, attr in pairs]
    originals = {binding: _binding(tracer, *binding) for binding in bindings}
    t = tracer.Tracer()
    try:
        t.install()
        for binding in bindings:
            assert getattr(_binding(tracer, *binding), "__wrapped_layer__", None), binding
    finally:
        t.uninstall()
    for binding, original in originals.items():
        assert _binding(tracer, *binding) is original, binding
