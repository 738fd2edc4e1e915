"""The benchmark's tracer must still find every binding it wraps.

``perfbench/tracer.py`` swaps named module and class attributes of
medianlab for timing wrappers.  Deleting or renaming one of those
bindings breaks the traced benchmark run, so this test installs the
tracer, checks that every binding was wrapped, and checks that
``uninstall`` puts each original object back.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from medianlab.cli import main

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


def test_renamed_game_calls_the_one_pair_layers(capsys):
    # the benchmark's warm-up game, lowerbound --n 64, is the only caller of
    # these layers, and the benchmark's self-test needs each of them called
    tracer = _load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        assert main(["lowerbound", "--n", "64", "--seed", "0"]) == 0
    finally:
        t.uninstall()
    capsys.readouterr()
    calls = Counter(t.names[i] for i in t.name)
    for layer in ("lowerbound.renaming_proxy", "metric.query", "adversary.answer"):
        assert calls[layer] > 0, layer
