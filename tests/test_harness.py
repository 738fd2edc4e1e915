import weakref

import numpy as np
import pytest

from medianlab import harness
from medianlab import metric as metric_module
from medianlab.cli import main
from medianlab.distances import ExactDistance
from medianlab.harness import (
    INSTANCE_KINDS,
    SweepConfig,
    generate_instance,
    play_adversary_game,
    rows_to_csv_text,
    sweep_upper_bound,
    verify_nonadaptive,
)
from medianlab.metric import CountingOracle, _single, graph_metric, replay_verify, validate_metric
from medianlab.players import make_player
from medianlab.solvers import ExactInner, PivotInner, SamplingInner



def test_generate_instance_deterministic(monkeypatch):
    for kind in INSTANCE_KINDS:
        # two cold builds, not one kept table compared with itself
        monkeypatch.setattr(harness, "_last_instance", None)
        first = generate_instance(kind, 14, 3)
        harness._last_instance = None
        assert generate_instance(kind, 14, 3) == first
    assert generate_instance("table", 10, 0) != generate_instance("table", 10, 1)
    assert generate_instance("random-graph", 10, 0) != generate_instance("random-graph", 10, 4)


def test_generate_instance_rejects_unknown():
    with pytest.raises(ValueError):
        generate_instance("moebius", 8, 0)
    with pytest.raises(ValueError):
        generate_instance("grid", 0, 0)


def test_generate_instance_keeps_its_last_table_read_only(monkeypatch):
    monkeypatch.setattr(harness, "_last_instance", None)
    last = generate_instance("grid", 9, 0)
    assert generate_instance("grid", 9, 0) is last
    for array in (last.units, last.eps):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 1] = 5
    # another kind, size or seed misses, even with equal content, and
    # returns what a cold build returns
    for kind, n, seed in (("star-path", 9, 0), ("grid", 10, 0), ("grid", 10, 1), ("table", 10, 1), ("table", 10, 2)):
        warm = generate_instance(kind, n, seed)
        assert warm is not last, (kind, n, seed)
        harness._last_instance = None
        assert generate_instance(kind, n, seed) == warm, (kind, n, seed)
        last = warm


def test_generate_instance_keeps_nothing_it_should_not(monkeypatch):
    monkeypatch.setattr(harness, "_last_instance", None)
    first = generate_instance("table", 6, None)
    assert generate_instance("table", 6, None) is not first
    assert harness._last_instance is None
    for kind, n in (("moebius", 8), ("grid", 0)):
        with pytest.raises(ValueError):
            generate_instance(kind, n, 0)
        assert harness._last_instance is None

    # the old table is let go before the next one is built
    old = weakref.ref(generate_instance("grid", 9, 0))
    alive_during_build = []

    def build(n, edges):
        alive_during_build.append(old() is not None)
        return graph_metric(n, edges)

    monkeypatch.setattr(harness, "graph_metric", build)
    generate_instance("grid", 10, 0)
    assert alive_during_build == [False]

    # a build that fails lets the old table go and keeps nothing
    def broken(n, edges):
        raise metric_module.DisconnectedGraphError("cut")

    monkeypatch.setattr(harness, "graph_metric", broken)
    with pytest.raises(metric_module.DisconnectedGraphError):
        generate_instance("grid", 11, 0)
    assert harness._last_instance is None


def test_generate_instance_refuses_a_table_past_physical_memory(monkeypatch):
    monkeypatch.setattr(harness, "_grid_edges", None)  # never reached
    with pytest.raises(ValueError, match=r"^the 1000000 x 1000000 int64 table of a grid instance needs about "):
        generate_instance("grid", 10**6, 0)


def _cold_builds(monkeypatch):
    """Make every generate_instance call forget the last table first."""
    build = harness.generate_instance

    def cold(*args):
        harness._last_instance = None
        return build(*args)

    monkeypatch.setattr(harness, "generate_instance", cold)


def test_sweep_stdout_is_the_same_with_the_memo_cleared_before_every_cell(monkeypatch, capsys):
    argv = ["sweep", "--kinds", "grid,table", "--sizes", "9,16", "--factors", "1,4"]
    argv += ["--inners", "exact,pivot,sampling", "--seed", "3", "--out", "json"]
    monkeypatch.setattr(harness, "_last_instance", None)
    assert main(argv) == 0
    warm = capsys.readouterr().out
    _cold_builds(monkeypatch)
    assert main(argv) == 0
    assert capsys.readouterr().out == warm


def test_sweep_builds_each_instance_once(monkeypatch):
    configs = [
        SweepConfig(kind=kind, n=n, f_of_n=f, inner=inner, seed=3)
        for f in (1, 4)
        for inner in ("exact", "pivot", "sampling")
        for n in (9, 16)
        for kind in ("grid", "star-path")
    ]
    monkeypatch.setattr(harness, "_last_instance", None)
    tables = []
    graph_metric = harness.graph_metric
    monkeypatch.setattr(harness, "graph_metric", lambda n, edges: tables.append(n) or graph_metric(n, edges))
    rows = sweep_upper_bound(configs)
    assert len(tables) == 4  # one per (kind, n), not one per cell
    columns = ("kind", "n", "f_of_n", "inner", "seed")
    assert [tuple(row[c] for c in columns) for row in rows] == sorted(cfg.key() for cfg in configs)
    _cold_builds(monkeypatch)
    assert rows == [sweep_upper_bound([cfg])[0] for cfg in sorted(configs, key=SweepConfig.key)]


def test_star_path_small_is_plain_path():
    t = generate_instance("star-path", 4, 0)
    assert _single(t.distances([0], [3])) == ExactDistance(3)


def test_star_path_frozen_shape():
    # 7 points: path 0-1-2-3 plus leaves 4, 5, 6 hanging off point 0
    t = generate_instance("star-path", 7, 0)
    assert _single(t.distances([0], [4])) == ExactDistance(1)
    assert _single(t.distances([4], [5])) == ExactDistance(2)
    assert _single(t.distances([3], [4])) == ExactDistance(4)
    assert _single(t.distances([0], [3])) == ExactDistance(3)


def test_grid_frozen_shape():
    t = generate_instance("grid", 9, 0)
    assert _single(t.distances([0], [8])) == ExactDistance(4)
    assert _single(t.distances([2], [6])) == ExactDistance(4)
    assert _single(t.distances([0], [4])) == ExactDistance(2)


def test_every_kind_yields_a_metric():
    for kind in INSTANCE_KINDS:
        for n, seed in ((5, 0), (12, 1), (17, 2)):
            assert validate_metric(generate_instance(kind, n, seed)) == [], (kind, n, seed)


def test_replay_verify():
    t = generate_instance("table", 8, 1)
    o = CountingOracle(t)
    for a, b in ((0, 3), (2, 2), (5, 7), (0, 3)):
        o.query(a, b)
    assert replay_verify(o.transcript, t)
    other = generate_instance("grid", 8, 0)
    assert not replay_verify(o.transcript, other)


def test_verify_nonadaptive():
    assert verify_nonadaptive(ExactInner(), 5)
    assert not verify_nonadaptive(PivotInner(), 5)
    assert not verify_nonadaptive(SamplingInner(rng_seed=0), 5)


def test_sweep_rows_sorted_and_bounded():
    configs = [
        SweepConfig(kind="grid", n=12, f_of_n=4, inner="pivot"),
        SweepConfig(kind="grid", n=12, f_of_n=4, inner="exact"),
        SweepConfig(kind="star-path", n=9, f_of_n=1, inner="exact"),
    ]
    rows = sweep_upper_bound(configs)
    assert [r["kind"] for r in rows] == ["grid", "grid", "star-path"]
    assert [r["inner"] for r in rows[:2]] == ["exact", "pivot"]
    for row in rows:
        assert row["bound_satisfied"]
        assert row["ratio"] <= row["bound"]
        assert row["queries"] >= 0
    # with f=1 the subset is everything and exact solving is optimal
    assert rows[2]["ratio"] == 1.0
    assert rows[2]["output"] == rows[2]["opt"]


def test_sweep_deterministic(monkeypatch):
    cfg = [SweepConfig(kind="table", n=10, f_of_n=4, inner="pivot", seed=5)]
    monkeypatch.setattr(harness, "_last_instance", None)
    a = sweep_upper_bound(cfg)
    harness._last_instance = None  # the second sweep builds its own table
    b = sweep_upper_bound(cfg)
    assert a == b


def test_sweep_rejects_an_over_cap_config_before_building_any_instance(monkeypatch):
    built = []
    monkeypatch.setattr(harness, "generate_instance", lambda *args: built.append(args))
    configs = [
        SweepConfig(kind="grid", n=16, f_of_n=1, inner="exact"),
        SweepConfig(kind="grid", n=5000, f_of_n=1, inner="exact"),
    ]
    with pytest.raises(ValueError, match=r"^n=5000 exceeds the brute-force cap 4096$"):
        sweep_upper_bound(configs)
    # an unknown kind or inner name fails before any cell runs, too
    for bad, message in (
        (SweepConfig(kind="grid", n=2000, f_of_n=1, inner="nope"), r"^unknown inner routine 'nope'$"),
        (SweepConfig(kind="nope", n=16, f_of_n=1, inner="exact"), r"^unknown instance kind 'nope' \(have "),
    ):
        with pytest.raises(ValueError, match=message):
            sweep_upper_bound([SweepConfig(kind="grid", n=2000, f_of_n=1, inner="exact"), bad])
    assert built == []


def test_play_adversary_game_checks():
    for algo in ("exact", "random"):
        cert, checks = play_adversary_game(
            16, 8, 4, make_player(algo, budget=8, seed=1), seed=1, metric_axioms_cap=64
        )
        assert cert.rounds == 24
        assert all(checks.values()), (algo, checks)
        assert "metric_axioms" in checks


def test_csv_rendering():
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    assert rows_to_csv_text(rows) == "a,b\r\n1,x\r\n2,y\r\n"
    assert rows_to_csv_text([]) == ""
