import hashlib
import tracemalloc
from fractions import Fraction

import pytest

from medianlab.distances import ExactDistance
from medianlab.metric import (
    CountingOracle,
    QueryOutsideSubsetError,
    brute_force_cost,
    brute_force_median,
    graph_metric,
)
from medianlab.players import PLAYERS, make_player
from medianlab.solvers import (
    ExactInner,
    PivotInner,
    SamplingInner,
    cost_ratio,
    make_inner,
    restrict_and_solve,
    solve_on_subset,
    subset_schedule,
    subset_size,
    transfer_bound,
)

from medianlab.harness import ConstantBacking, generate_instance
from medianlab.players import SamplingPlayer

from conftest import LineMetric, subset_size_grid


def test_subset_size_frozen_values():
    assert subset_size(100, 4) == 50
    assert subset_size(100, 1) == 100
    assert subset_size(10, 100) == 1
    assert subset_size(7, 49) == 1
    assert subset_size(8, 4) == 4
    assert subset_size(9, 4) == 5  # ceil(9/2)
    assert subset_size(5, 3) == 5  # isqrt(3) = 1


def test_subset_size_validation():
    with pytest.raises(ValueError):
        subset_size(0, 4)
    with pytest.raises(ValueError):
        subset_size(10, 0)


def test_subset_schedule_is_prefix():
    assert subset_schedule(10, 3) == [0, 1, 2]
    assert subset_schedule(3, 3) == [0, 1, 2]


def test_transfer_bound_frozen_values():
    assert transfer_bound(Fraction(1), 8, 4) == 9
    assert transfer_bound(Fraction(1), 64, 64) == 5
    assert transfer_bound(Fraction(2), 100, 10) == 81
    assert transfer_bound(Fraction(3, 2), 10, 5) == 13


def test_transfer_bound_validation():
    with pytest.raises(ValueError):
        transfer_bound(Fraction(1, 2), 10, 5)  # beta < 1 is not a valid claim
    with pytest.raises(ValueError):
        transfer_bound(Fraction(1), 10, 11)  # subset larger than the space


def test_cost_ratio_rule():
    eps = Fraction(1, 2**4)
    assert cost_ratio(ExactDistance(3, 2), ExactDistance(2), eps) == Fraction(25, 16)
    assert cost_ratio(ExactDistance(0, 1), ExactDistance(0, 2), eps) == Fraction(1, 2)
    assert cost_ratio(ExactDistance(0), ExactDistance(0), eps) == 1  # 0/0 counts as 1
    with pytest.raises(ValueError, match="not a metric"):
        cost_ratio(ExactDistance(0, 1), ExactDistance(0), eps)


def test_exact_inner_is_nonadaptive_with_published_schedule():
    inner = ExactInner()
    assert inner.schedule([2, 0, 1]) == [(0, 1), (0, 2), (1, 2)]
    # the actual query sequence equals the schedule whatever the answers
    for const in (1, 4):
        stub = CountingOracle(ConstantBacking(3, const), record_transcript=True)
        inner.solve(stub, range(3))
        assert [(e.a, e.b) for e in stub.transcript] == inner.schedule(range(3))


def test_exact_inner_on_p4_prefix():
    p4 = graph_metric(4, [(0, 1), (1, 2), (2, 3)])
    o = CountingOracle(p4)
    res = ExactInner().solve(o, [0, 1, 2])
    assert res.output == 1
    assert res.queries_used == 3
    assert res.claimed_beta == 1


def test_pivot_inner_basics():
    inner = PivotInner()
    assert inner.schedule([0, 1, 2]) is None
    assert inner.query_bound(7) == 21


def test_pivot_inner_singleton_and_pair():
    p4 = graph_metric(4, [(0, 1), (1, 2), (2, 3)])
    o = CountingOracle(p4)
    single = PivotInner().solve(o, [2])
    assert (single.output, single.queries_used) == (2, 0)
    res = PivotInner().solve(o, [1, 3])
    assert res.output == 1  # tie on the pair distance, lowest index
    assert res.queries_used == 4


def test_pivot_inner_star_frozen():
    star = graph_metric(4, [(0, 1), (0, 2), (0, 3)])
    o = CountingOracle(star)
    res = PivotInner().solve(o, range(4))
    # challenger is point 2 (ties with 3 broken low); pivots win anyway
    assert res.output == 0
    assert res.queries_used == 12
    assert brute_force_cost(star, res.output) == ExactDistance(3)


def test_pivot_inner_finds_line_center():
    line = graph_metric(5, [(i, i + 1) for i in range(4)])
    o = CountingOracle(line)
    res = PivotInner().solve(o, range(5))
    assert res.output == 2  # the challenger beats both endpoints
    assert res.queries_used == 15


def test_pivot_inner_respects_query_bound(small_corpus):
    inner = PivotInner()
    for kind, n, seed, table in small_corpus:
        for s in subset_size_grid(n):
            o = CountingOracle(table)
            res = inner.solve(o, range(s))
            assert res.queries_used <= inner.query_bound(s)
            assert res.queries_used <= 5 * s


def test_solve_on_subset_guards_queries():
    p4 = graph_metric(4, [(0, 1), (1, 2), (2, 3)])

    class Leaky:
        def solve(self, oracle, S):
            return oracle.query(0, 3)

    with pytest.raises(QueryOutsideSubsetError):
        solve_on_subset(CountingOracle(p4), [0, 1], Leaky())


def test_restrict_and_solve_p4_frozen():
    p4 = graph_metric(4, [(0, 1), (1, 2), (2, 3)])
    o = CountingOracle(p4)
    res = restrict_and_solve(o, 4, 4, ExactInner())
    # f=4 -> s=2 -> S={0,1}; inside S both cost 1, tie to 0
    assert res.output == 0
    assert res.queries_used == 1
    # global quality: cost 6 vs OPT 4, within the transfer bound 4*4/2+1 = 9
    ratio = Fraction(brute_force_cost(p4, res.output).units, brute_force_cost(p4, 1).units)
    assert ratio == Fraction(3, 2) <= transfer_bound(Fraction(1), 4, 2)


def test_transfer_bound_holds_on_corpus(small_corpus):
    for kind, n, seed, table in small_corpus:
        opt_point, opt_cost = brute_force_median(table)
        for s in subset_size_grid(n):
            o = CountingOracle(table)
            res = solve_on_subset(o, list(range(s)), ExactInner())
            out_cost = brute_force_cost(table, res.output)
            # cost * s <= (4n + s) * opt, all integers
            assert out_cost.units * s <= (4 * n + s) * opt_cost.units, (kind, n, seed, s)


def test_sampling_inner_degenerates_to_exact():
    p4 = graph_metric(4, [(0, 1), (1, 2), (2, 3)])
    o = CountingOracle(p4)
    res = SamplingInner(rng_seed=0, sample_size=10).solve(o, range(4))
    assert res.output == 1
    assert res.claimed_beta == 1
    assert res.queries_used == 6


def test_sampling_inner_is_seeded_and_bounded():
    table = graph_metric(9, [(i, i + 1) for i in range(8)])
    outs = set()
    for _ in range(3):
        o = CountingOracle(table)
        res = SamplingInner(rng_seed=5, sample_size=2).solve(o, range(9))
        outs.add(res.output)
        assert res.queries_used <= SamplingInner(rng_seed=5, sample_size=2).query_bound(9)
    assert len(outs) == 1  # same seed, same answer


def test_sampling_baseline_smoke():
    table = graph_metric(9, [(i, i + 1) for i in range(8)])
    o = CountingOracle(table)
    res = SamplingInner(rng_seed=1, sample_size=3).solve(o, range(9))
    assert 0 <= res.output < 9
    assert res.queries_used == o.queries_made <= 9


def test_sampling_inner_draws_the_same_points_from_a_range_as_from_its_list():
    for n, lo in ((9, 0), (40, 0), (137, 0), (1000, 0), (60, 7)):
        for k in (None, 1, 2, 5, 9):
            for seed in range(4):
                runs = []
                # a descending range is sorted like any other sequence
                for S in (range(lo, n), list(range(lo, n))[::-1], range(n - 1, lo - 1, -1)):
                    o = CountingOracle(LineMetric(n))
                    res = SamplingInner(rng_seed=seed, sample_size=k).solve(o, S)
                    runs.append((res, o.queries_made, [(e.a, e.b) for e in o.transcript]))
                assert runs[0] == runs[1] == runs[2], (n, lo, k, seed)


def test_sampling_inner_over_a_range_lists_no_point():
    n = 10**6
    o = CountingOracle(LineMetric(n))
    tracemalloc.start()
    try:
        res = SamplingInner(rng_seed=0, sample_size=3).solve(o, range(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.queries_used == o.queries_made == 9
    assert peak < 64 * 1024, peak  # a list of the n points alone is 8 MB


# sha256 over the output, the query pairs and the claimed beta of
# SamplingPlayer and SamplingInner on a fixed set of cases, including
# the degenerate exact fallback; any change to the sampled points, their
# order or the scoring moves it
GOLDEN_SAMPLING = "744704d26a45c0a2418b954204cec0da42f4b563f4a4e7a86dacc0cb0d7203e0"


def test_sampling_routines_golden():
    digest = hashlib.sha256()
    player_cases = [(9, 4, 0), (30, 50, 1), (30, 1000, 2), (64, 100, 3), (5, 3, 7), (12, 0, 4)]
    for n, budget, seed in player_cases:
        o = CountingOracle(generate_instance("random-graph", n, seed))
        out = SamplingPlayer(budget, seed).run(o, n)
        pairs = [(e.a, e.b) for e in o.transcript]
        digest.update(repr(("player", n, budget, seed, out, pairs)).encode())
    baseline_cases = [(9, 3, 1), (40, 6, 2), (12, 12, 0), (12, 20, 5), (25, 1, 9)]
    for n, k, seed in baseline_cases:
        o = CountingOracle(generate_instance("grid", n, seed))
        res = SamplingInner(rng_seed=seed, sample_size=k).solve(o, range(n))
        pairs = [(e.a, e.b) for e in o.transcript]
        digest.update(
            repr(("baseline", n, k, seed, res.output, res.queries_used, res.claimed_beta, pairs)).encode()
        )
    assert digest.hexdigest() == GOLDEN_SAMPLING


def test_make_inner_names():
    assert make_inner("exact").name == "exact"
    assert make_inner("pivot").name == "pivot"
    assert make_inner("sampling", rng_seed=3).name == "sampling"
    with pytest.raises(ValueError):
        make_inner("nope")


def test_make_player_names():
    for name in PLAYERS:
        player = make_player(name, budget=5, seed=2)
        assert player.budget == 5
    assert make_player("sampling", budget=5, seed=2).seed == 2
    assert make_player("random", budget=5, seed=2).seed == 2
    for name in ("fuzzer", "extern", "nope"):
        with pytest.raises(ValueError, match="unknown player"):
            make_player(name, budget=5)
