import random

import pytest

from medianlab import lowerbound
from medianlab.distances import EPS, ExactDistance
from medianlab.harness import generate_instance
from medianlab.lowerbound import (
    BudgetExceededError,
    GluedMetric,
    Renaming,
    glue_metric,
    hard_instance_game,
    run_renamed,
)
from medianlab.metric import CountingOracle, HopMetric, MetricTable, graph_metric, validate_metric
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
    run = run_renamed(ScriptedPlayer([(5, 5)], 5), oracle, n=1000, budget=2)
    assert (oracle.transcript[0].a, oracle.transcript[0].b) == (0, 0)
    assert run.output_name == 0

    # two fresh points, a before b, and the unqueried output gets the next name
    oracle = p3_oracle()
    run = run_renamed(ScriptedPlayer([(5, 9)], 823), oracle, n=1000, budget=2)
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
        run_renamed(ScriptedPlayer([(0, 1000)], 0), p3_oracle(), n=1000, budget=5)
    with pytest.raises(IndexError):
        run_renamed(ScriptedPlayer([], 1000), p3_oracle(), n=1000, budget=5)


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
            assert ans == e.answer == table.distance(e.a, e.b)
        assert 0 <= run.output < n
        assert run.output_name == fwd[run.output]


def test_transcripts_aligned_catches_a_proxy_that_forwards_the_wrong_point(monkeypatch):
    # the proxy keeps the algorithm's transcript honest but sends the
    # adversary a neighbouring name, so the player gets wrong answers
    def misforward(self, a, b):
        ren = self._run.renaming
        na, nb = ren.assign(a), ren.assign(b)
        answer = self._oracle.query(na, (nb + 1) % self._oracle.n)
        self._run.queries_used += 1
        self._run.inner_transcript.append((a, b, answer))
        return answer

    monkeypatch.setattr(lowerbound._RenamingProxy, "query", misforward)
    for algo in ("exact", "random"):
        report = hard_instance_game(make_player(algo, 20, seed=0), n=256, q=20, degree=4, seed=0)
        assert not report.checks["transcripts_aligned"], algo
        assert not report.all_ok, algo


def test_glued_metric_distance_cases():
    base = graph_metric(3, [(0, 1), (1, 2)])  # the path 0-1-2
    g = glue_metric(base, y=1, n=6)
    assert g.distance(3, 4) == EPS  # two artificial points
    assert g.distance(1, 4) == EPS  # gluing point to artificial
    assert g.distance(0, 3) == base.distance(0, 1)  # outsider sees y
    assert g.distance(0, 2) == base.distance(0, 2)  # outsiders unchanged
    assert g.distance(4, 4) == ExactDistance(0)
    with pytest.raises(IndexError):
        g.distance(0, 6)


def test_glued_metric_costs_closed_form():
    base = graph_metric(3, [(0, 1), (1, 2)])
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
    base = generate_instance("table", 5, seed=3)
    g = glue_metric(base, y=2, n=12)
    assert validate_metric(g.to_table()) == []


def test_glue_validation():
    base = graph_metric(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        glue_metric(base, y=3, n=6)
    with pytest.raises(ValueError):
        glue_metric(base, y=0, n=3)  # no room for artificial points
    lopsided = MetricTable(base.units, base.units)  # eps-bearing base
    with pytest.raises(ValueError):
        glue_metric(lopsided, y=0, n=6)


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


def test_glue_checks_see_a_wrong_base_row_sum(monkeypatch):
    # the glue adds one to every base row sum; the certificate's audited
    # base costs do not, so both cost splits fail
    true_sum = GluedMetric._base_row_sum
    monkeypatch.setattr(GluedMetric, "_base_row_sum", lambda self, p: true_sum(self, p) + 1)
    for algo in ("exact", "random"):
        report = hard_instance_game(make_player(algo, 20, seed=0), n=256, q=20, degree=4, seed=0)
        assert report.checks["cost_split_z"] is False, algo
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
    assert cert.final_metric.distance(cert.z_star, cert.best_good[0]).units >= 1  # the output went bad and drifted away
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
