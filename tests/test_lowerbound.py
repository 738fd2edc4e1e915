import random
import tracemalloc

import numpy as np
import pytest

import medianlab.metric as metric_module
from medianlab import lowerbound
from medianlab.adversary import Adversary, minimal_cap
from medianlab.distances import EPS, ExactDistance
from medianlab.expander import build_regular
from medianlab.harness import generate_instance
from medianlab.lowerbound import (
    BudgetExceededError,
    GluedMetric,
    Renaming,
    RenamedRun,
    glue_metric,
    hard_instance_game,
    run_renamed,
)
from medianlab.metric import CountingOracle, HopMetric, MetricTable, _single, graph_metric, validate_metric
from medianlab.players import RandomFuzzer, make_player



class ScriptedPlayer:
    """Plays a fixed query list, then answers a fixed output."""

    name = "scripted"

    def __init__(self, queries, output):
        self.queries = queries
        self.output = output

    def run(self, oracle, n):
        for a, b in self.queries:
            oracle.query(a, b)
        return self.output


def p3_oracle():
    return CountingOracle(graph_metric(3, [(0, 1), (1, 2)]))


def test_renaming_first_sight_order():
    r = Renaming()
    assert r.assign(17) == 0
    assert r.assign(42) == 1
    assert r.assign(17) == 0
    assert r.count == 2
    assert r.mapping == {17: 0, 42: 1}


def test_run_renamed_frozen_cases():
    # a self-query renames to a self-query
    oracle = p3_oracle()
    run = run_renamed(ScriptedPlayer([(5, 5)], 5), oracle, n=1000, budget=1)
    assert (oracle.transcript[0].a, oracle.transcript[0].b) == (0, 0)
    assert run.output_name == 0

    # two fresh points, a before b, and the unqueried output gets the next name
    oracle = p3_oracle()
    run = run_renamed(ScriptedPlayer([(5, 9)], 823), oracle, n=1000, budget=1)
    assert (oracle.transcript[0].a, oracle.transcript[0].b) == (0, 1)
    assert run.renaming.mapping == {5: 0, 9: 1, 823: 2}
    assert run.output_name == 2
    assert run.queries_used == 1


def test_run_renamed_budget_enforced_before_naming():
    player = ScriptedPlayer([(5, 9), (700, 800)], 5)
    oracle = p3_oracle()
    with pytest.raises(BudgetExceededError):
        run_renamed(player, oracle, n=1000, budget=1)
    assert oracle.queries_made == 1  # the rejected query never reached the oracle


def test_run_renamed_validates_points():
    with pytest.raises(IndexError):
        run_renamed(ScriptedPlayer([(0, 1000)], 0), p3_oracle(), n=1000, budget=1)
    with pytest.raises(IndexError):
        run_renamed(ScriptedPlayer([], 1000), p3_oracle(), n=1000, budget=1)


def test_run_renamed_refuses_a_space_too_small_for_its_names():
    # 40 queries may name 81 points; a 33-point arena is refused before any round
    rounds = 40 + 33
    adv = Adversary(build_regular(33, 4, 0), rounds, minimal_cap(33, rounds, 4))
    oracle = CountingOracle(adv)
    with pytest.raises(ValueError, match=r"^an oracle of 33 points cannot hold the 81 names a budget of 40 may give$"):
        run_renamed(RandomFuzzer(40, 0), oracle, 200, 40)
    assert adv.rounds_served == oracle.queries_made == 0
    assert oracle.transcript == []


class BatchPlayer:
    """Asks fixed pairs as one ``query_many`` batch, then answers a fixed output."""

    name = "batch"

    def __init__(self, pairs, output):
        self.pairs = pairs
        self.output = output

    def run(self, oracle, n):
        oracle.query_many([a for a, _ in self.pairs], [b for _, b in self.pairs])
        return self.output


class CallCountingOracle(CountingOracle):
    """A CountingOracle that logs every call it gets, with the pairs asked."""

    def __init__(self, backing):
        super().__init__(backing)
        self.calls = []

    def query(self, a, b):
        self.calls.append(("query", 1))
        return super().query(a, b)

    def query_many(self, a, b):
        self.calls.append(("query_many", len(a)))
        return super().query_many(a, b)


def test_renamed_batch_reaches_the_arena_pair_by_pair():
    # each pair is one arena query, so the benchmark's tracer times the
    # renamed game's rounds through the one-pair forms
    for seed in range(4):
        rng = random.Random(seed)
        pairs = [(rng.randrange(50), rng.randrange(50)) for _ in range(12)]
        oracle = CallCountingOracle(generate_instance("table", 25, seed=seed))
        run = run_renamed(BatchPlayer(pairs, 49), oracle, n=50, budget=12)
        assert oracle.calls == [("query", 1)] * 12
        # first-sight names, a before b, pair by pair
        names = {}
        for point in [p for pair in pairs for p in pair] + [49]:
            names.setdefault(point, len(names))
        assert run.renaming.mapping == names
        assert [(e.a, e.b) for e in oracle.transcript] == [(names[a], names[b]) for a, b in pairs]
        assert [(a, b) for a, b, _ in run.inner_transcript] == pairs
        assert [ans for _, _, ans in run.inner_transcript] == [e.answer for e in oracle.transcript]
        assert run.queries_used == oracle.queries_made == 12


@pytest.mark.parametrize(
    "pairs, error",
    [
        ([(5, 9), (700, 800), (1, 2)], BudgetExceededError),  # one pair past a budget of 2
        ([(5, 9), (7, 1000)], IndexError),  # the second pair leaves the space
        ([(5, 9), (-1, 3)], IndexError),
    ],
)
def test_bad_renamed_batch_raises_before_naming_or_asking(pairs, error):
    oracle = CallCountingOracle(graph_metric(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    run = RenamedRun(-1, -1, Renaming(), [])
    proxy = lowerbound._RenamingProxy(oracle, 1000, 2, run)
    with pytest.raises(error):
        BatchPlayer(pairs, 0).run(proxy, 1000)
    assert oracle.calls == [] and oracle.queries_made == 0
    assert run.renaming.count == 0 and run.queries_used == 0 and run.inner_transcript == []


def test_run_renamed_fuzz_against_plain_tables():
    # renaming must be invisible: the algorithm's transcript, renamed, is
    # the oracle's, and every answer equals the backing table's distance
    rng = random.Random(0)
    for trial in range(80):
        q = rng.randint(1, 6)
        m = 2 * q + 1
        n = rng.randint(m + 1, 60)
        table = generate_instance("table", m, seed=trial)
        oracle = CountingOracle(table)
        player = RandomFuzzer(budget=q, seed=trial)
        run = run_renamed(player, oracle, n, q)
        names = list(run.renaming.mapping.values())
        assert len(set(names)) == len(names)
        assert run.renaming.count <= m
        assert run.queries_used == q
        fwd = run.renaming.mapping
        assert len(run.inner_transcript) == len(oracle.transcript) == q
        for (a, b, ans), e in zip(run.inner_transcript, oracle.transcript):
            assert (fwd[a], fwd[b]) == (e.a, e.b)
            assert ans == e.answer == _single(table.distances([e.a], [e.b]))
        assert 0 <= run.output < n
        assert run.output_name == fwd[run.output]


def test_transcripts_aligned_catches_a_proxy_that_forwards_the_wrong_point(monkeypatch):
    # the proxy keeps the algorithm's transcript honest but sends the
    # adversary a neighbouring name, so the player gets wrong answers
    def misforward(self, a, b):
        ren = self._run.renaming
        a, b = np.asarray(a).tolist(), np.asarray(b).tolist()
        names = [(ren.assign(x), ren.assign(y)) for x, y in zip(a, b)]
        units, eps = self._oracle.query_many(
            [na for na, _ in names], [(nb + 1) % self._oracle.n for _, nb in names]
        )
        self._run.inner_transcript.extend(
            (x, y, ExactDistance(u, e)) for x, y, u, e in zip(a, b, units.tolist(), eps.tolist())
        )
        return units, eps

    monkeypatch.setattr(lowerbound._RenamingProxy, "query_many", misforward)
    for algo in ("exact", "random"):
        report = hard_instance_game(make_player(algo, 20, seed=0), n=256, q=20, degree=4, seed=0)
        assert not report.checks["transcripts_aligned"], algo
        assert not report.all_ok, algo


def _path_hops(m, clique=()):
    """The path 0-1-...-(m-1) as a HopMetric, with a clique on the given vertices."""
    adj = np.zeros((m, m), dtype=bool)
    idx = np.arange(m - 1)
    adj[idx, idx + 1] = adj[idx + 1, idx] = True
    mask = np.zeros(m, dtype=bool)
    mask[list(clique)] = True
    return HopMetric(adj, mask)


def test_glued_metric_distance_cases():
    base = _path_hops(3)  # the path 0-1-2
    g = glue_metric(base, y=1, n=6)
    assert g.distance(3, 4) == EPS  # two artificial points
    assert g.distance(1, 4) == EPS  # gluing point to artificial
    assert g.distance(0, 3) == _single(base.distances([0], [1]))  # outsider sees y
    assert g.distance(0, 2) == _single(base.distances([0], [2]))  # outsiders unchanged
    assert g.distance(4, 4) == ExactDistance(0)
    with pytest.raises(IndexError):
        g.distance(0, 6)


def test_glued_metric_costs_closed_form():
    base = _path_hops(3)
    g = glue_metric(base, y=1, n=6)
    # cluster point: base row of y plus eps to the other three members
    assert g.cost_of(1) == ExactDistance(2, 3)
    assert g.cost_of(4) == ExactDistance(2, 3)
    # outsider 0: base row sum 0+1+2 plus 3 copies of d(0, y)
    assert g.cost_of(0) == ExactDistance(6)
    # the closed forms agree with brute-force sums over all points
    for p in range(6):
        explicit = sum((g.distance(p, x) for x in range(6)), ExactDistance(0))
        assert g.cost_of(p) == explicit, p


def test_glued_metric_is_a_metric():
    base = _path_hops(5, clique=(0, 4))  # a 5-cycle: the path closed by a clique hop
    g = glue_metric(base, y=2, n=12)
    assert validate_metric(g.to_table()) == []


def test_glued_to_table_peak_stays_near_its_two_tables():
    # the glued table is filled block by block of whole rows, so its peak is
    # the two n x n int64 tables it returns plus one block's temporaries
    base, y = _finished_game_metric()
    n = 1024
    g = glue_metric(base, y, n)
    base.row(y)  # the base rows are the game's, not the table's
    tracemalloc.start()
    try:
        table = g.to_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = 2 * n * n * 8
    assert peak < 1.25 * tables, peak / tables
    rows = [g.distances(np.full(n, p), np.arange(n)) for p in range(n)]
    assert table == MetricTable(np.stack([u for u, _ in rows]), np.stack([e for _, e in rows]))


def test_glued_to_table_runs_no_row_bfs(monkeypatch):
    # the glued table is the base's all-sources table read at the stand-ins
    base, y = _finished_game_metric()
    fresh = HopMetric(base.adjacency, base.clique)
    want = glue_metric(base, y, 40).to_table()
    calls = []
    real = metric_module.bfs_hop_row
    monkeypatch.setattr(metric_module, "bfs_hop_row", lambda adj, s, clique=None: calls.append(s) or real(adj, s, clique=clique))
    assert glue_metric(fresh, y, 40).to_table() == want
    assert calls == [] and fresh._rows == {}


def _glued_reference(base, y, n):
    """The glued distance table from its definition, one one-pair base batch per pair."""
    m = base.n

    def in_cluster(p):
        return p == y or p >= m

    table = {}
    for a in range(n):
        for b in range(n):
            if a == b:
                table[a, b] = ExactDistance(0)
            elif in_cluster(a) and in_cluster(b):
                table[a, b] = EPS
            else:
                table[a, b] = _single(base.distances([y if in_cluster(a) else a], [y if in_cluster(b) else b]))
    return table


def _finished_game_metric():
    report = hard_instance_game(make_player("exact", budget=4, seed=0), n=20, q=4, degree=4, seed=2)
    return report.certificate.final_metric, report.certificate.best_good[0]


@pytest.mark.parametrize("make_base, n", [(_finished_game_metric, 20)], ids=["hop-metric"])
def test_glued_metric_matches_its_definition(make_base, n):
    base, y = make_base()
    g = glue_metric(base, y, n)
    ref = _glued_reference(base, y, n)
    pairs = sorted(ref)
    units, eps = g.distances([a for a, _ in pairs], [b for _, b in pairs])
    assert [ExactDistance(int(u), int(e)) for u, e in zip(units, eps)] == [ref[p] for p in pairs]
    table = g.to_table()
    for a, b in pairs:
        assert g.distance(a, b) == ref[a, b] == ExactDistance(int(table.units[a, b]), int(table.eps[a, b])), (a, b)
    for p in range(n):
        assert g.cost_of(p) == sum((ref[p, x] for x in range(n)), ExactDistance(0)), p
    for outside in (-1, n, 99):
        with pytest.raises(IndexError):
            g.distance(0, outside)
        with pytest.raises(IndexError):
            g.distances([outside], [0])
        with pytest.raises(IndexError):
            g.cost_of(outside)


def test_glue_validation():
    base = _path_hops(3)
    with pytest.raises(ValueError):
        glue_metric(base, y=3, n=6)
    with pytest.raises(ValueError):
        glue_metric(base, y=0, n=3)  # no room for artificial points
    with pytest.raises(ValueError, match="space too small for the eps regime"):
        glue_metric(_path_hops(1), y=0, n=2)
    # a huge glued space is built without forming 2**n
    assert glue_metric(base, y=1, n=10**12).distance(5, 10**12 - 1) == EPS
    # the glue takes the arena's hop metric only: a table of the same distances is refused
    with pytest.raises(TypeError, match="the glue takes the arena's HopMetric, got MetricTable"):
        glue_metric(graph_metric(3, [(0, 1), (1, 2)]), y=0, n=6)


def test_hard_instance_game_small_full_audit():
    report = hard_instance_game(
        make_player("exact", budget=4, seed=0), n=20, q=4, degree=4, seed=2
    )
    assert report.certificate.n == 9
    assert report.all_ok, report.checks
    assert report.ratio >= 1
    assert report.queries_used <= 4
    assert report.names_used <= 9
    payload = report.to_json_dict()
    assert payload["n"] == 20
    assert payload["z_star"] >= 1  # 1-based in the serialized form
    assert set(payload["checks"]) == set(report.checks)


def test_audit_sees_a_wrong_cost(monkeypatch):
    # every cost the final metric reports is one too high; the certificate
    # agrees with itself, but the hub-graph recount does not
    true_cost = HopMetric.cost_of
    monkeypatch.setattr(HopMetric, "cost_of", lambda self, a: true_cost(self, a) + 1)
    n = 4096
    q = n // 12  # n / log2 n
    report = hard_instance_game(make_player("exact", budget=q, seed=0), n=n, q=q, seed=0)
    assert report.checks["ratio_exact"] is False
    assert not report.all_ok


def test_glue_checks_see_a_wrong_glued_distance(monkeypatch):
    # the cost splits restate the glued costs from the certificate's audited
    # base costs, so a glue that puts distinct points one unit too far fails both
    true_distances = GluedMetric.distances

    def one_unit_too_far(self, a, b):
        units, eps = true_distances(self, a, b)
        return units + (np.asarray(a) != np.asarray(b)), eps

    monkeypatch.setattr(GluedMetric, "distances", one_unit_too_far)
    for algo in ("exact", "random"):
        report = hard_instance_game(make_player(algo, 20, seed=0), n=256, q=20, degree=4, seed=0)
        assert report.checks["cost_split_z"] is False, algo
        assert report.checks["cost_split_y"] is False, algo
        assert not report.all_ok, algo

    # a glue without its eps term loses y's eps to the rest of the cluster
    def no_eps(self, a, b):
        units, _ = true_distances(self, a, b)
        return units, np.zeros_like(units)

    monkeypatch.setattr(GluedMetric, "distances", no_eps)
    for algo in ("exact", "random"):
        report = hard_instance_game(make_player(algo, 20, seed=0), n=256, q=20, degree=4, seed=0)
        assert report.checks["cost_split_y"] is False, algo
        assert not report.all_ok, algo


def test_hard_instance_game_validates_budget_vs_space():
    with pytest.raises(ValueError):
        hard_instance_game(make_player("exact", budget=4, seed=0), n=9, q=4)
    with pytest.raises(ValueError):
        hard_instance_game(make_player("exact", budget=0, seed=0), n=9, q=0)


def test_ratio_grows_with_space_at_fixed_budget():
    # the same 25-point game gets glued into ever larger spaces; the
    # forced output stays put while its relative cost climbs
    q, d = 12, 4
    reports = [
        hard_instance_game(make_player("exact", budget=q, seed=0), n=n, q=q, degree=d, seed=2)
        for n in (64, 256, 1024)
    ]
    for rep in reports:
        assert rep.all_ok, rep.checks
    cert = reports[0].certificate
    assert cert.final_metric.row(cert.z_star)[cert.best_good[0]] >= 1  # the output went bad and drifted away
    ratios = [rep.ratio for rep in reports]
    assert ratios[0] < ratios[1] < ratios[2]
    # the underlying small game is identical every time
    assert len({rep.certificate.n for rep in reports}) == 1
    assert len({rep.certificate.z_star for rep in reports}) == 1
    assert len({rep.certificate.best_good[0] for rep in reports}) == 1


def test_hard_instance_game_pivot_and_fuzzer():
    for algo in ("pivot", "random"):
        report = hard_instance_game(
            make_player(algo, budget=10, seed=1), n=100, q=10, degree=4, seed=3
        )
        assert report.all_ok, (algo, report.checks)
        assert report.ratio >= 1
