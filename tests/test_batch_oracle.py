"""The batch query path against the per-pair one.

``query_many`` must answer, charge and record exactly as the same
``query`` calls would, each a one-pair batch, on every backing.  The
solvers that ask in batches are compared with per-pair reference copies
of the routines they replaced.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from medianlab.adversary import Adversary, minimal_cap
from medianlab.distances import ZERO, ExactDistance
from medianlab.expander import build_regular
from medianlab.harness import ConstantBacking, generate_instance
from medianlab.lowerbound import glue_metric, run_renamed
from medianlab.metric import (
    _BLOCK,
    CountingOracle,
    HopMetric,
    MetricTable,
    QueryOutsideSubsetError,
    RestrictedOracle,
    _single,
    brute_force_median,
    exact_median,
    graph_metric,
    sum_bound,
)
from medianlab.players import RandomFuzzer
from medianlab.solvers import ExactInner, PivotInner, SamplingInner, SolverResult, restrict_and_solve

from conftest import LineMetric, median_cost


# -- per-pair references: the routines as they were before batching ----


def _reference_exact_median(oracle, S):
    pts = sorted(set(S))
    if not pts:
        raise ValueError("cannot take a median of the empty set")
    cost = {p: ZERO for p in pts}
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            d = oracle.query(p, q)
            cost[p] = cost[p] + d
            cost[q] = cost[q] + d
    best = min(pts, key=lambda p: (cost[p], p))
    return best, cost[best]


def _reference_pivot_solve(oracle, S):
    pts = sorted(set(S))
    before = oracle.queries_made
    if len(pts) == 1:
        return SolverResult(pts[0], 0, None)
    p1, p2 = pts[0], pts[1]
    row1 = {y: oracle.query(p1, y) for y in pts}
    row2 = {y: oracle.query(p2, y) for y in pts}
    cost = {p1: sum(row1.values(), ZERO), p2: sum(row2.values(), ZERO)}
    others = pts[2:]
    if others:
        challenger = min(others, key=lambda y: (row1[y] + row2[y], y))
        cost[challenger] = sum((oracle.query(challenger, y) for y in pts), ZERO)
    output = min(sorted(cost), key=lambda p: (cost[p], p))
    return SolverResult(output, oracle.queries_made - before, None)


def _reference_sampling_solve(inner, oracle, S):
    pts = sorted(set(S))
    k = inner.sample_size if inner.sample_size is not None else max(1, math.isqrt(len(pts)))
    before = oracle.queries_made
    if k >= len(pts):
        point, _ = _reference_exact_median(oracle, pts)
        return SolverResult(point, oracle.queries_made - before, Fraction(1))
    rng = random.Random(inner.rng_seed)
    candidates = sorted(rng.sample(pts, k))
    evaluation = sorted(rng.sample(pts, k))
    score = {c: sum((oracle.query(c, e) for e in evaluation), ZERO) for c in candidates}
    output = min(candidates, key=lambda c: (score[c], c))
    return SolverResult(output, oracle.queries_made - before, None)


class _PerPairFuzzer(RandomFuzzer):
    """``RandomFuzzer`` as it stood: one ``query`` per drawn pair."""

    def run(self, oracle, n):
        rng = random.Random(self.seed)
        for _ in range(self.budget):
            oracle.query(rng.randrange(n), rng.randrange(n))
        return rng.randrange(n)


# -- backings -----------------------------------------------------------


def _eps_table(n, seed, spread=3):
    """A symmetric nonnegative table with eps parts and many ties; not
    necessarily a metric, which the solvers do not need."""
    rng = np.random.default_rng(seed)
    units = np.triu(rng.integers(0, spread, size=(n, n)), 1)
    eps = np.triu(rng.integers(0, spread, size=(n, n)), 1)
    return MetricTable(units + units.T, eps + eps.T)


def _adversary(n=33, q=20, seed=0):
    rounds = q + n
    return Adversary(build_regular(n, 4, seed), rounds, minimal_cap(n, rounds, 4))


def _hop_metric(n=12):
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    adj[0, n // 2] = adj[n // 2, 0] = True
    return HopMetric(adj, np.zeros(n, dtype=bool))


BACKINGS = {
    "table-eps": lambda: _eps_table(10, 3),
    "hop": _hop_metric,
    "line": lambda: LineMetric(15),
    "constant": lambda: ConstantBacking(9, 4),
    "adversary": _adversary,
}


def _pairs(n, count, seed):
    rng = random.Random(seed)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
    return pairs + [(0, 0), pairs[0]]  # a self-query and a repeat


@pytest.mark.parametrize("kind", sorted(BACKINGS))
def test_query_many_matches_per_pair_queries(kind):
    per_pair = CountingOracle(BACKINGS[kind]())
    batched = CountingOracle(BACKINGS[kind]())
    pairs = _pairs(per_pair.n, 25, seed=len(kind))
    a, b = (np.array(side, dtype=np.int64) for side in zip(*pairs))

    answers = [per_pair.query(x, y) for x, y in pairs]
    units, eps = batched.query_many(a, b)

    assert units.dtype == eps.dtype == np.int64
    assert list(zip(units.tolist(), eps.tolist())) == [(d.units, d.eps_count) for d in answers]
    assert batched.queries_made == per_pair.queries_made == len(pairs)
    assert batched.transcript == per_pair.transcript
    assert all(type(e.a) is type(e.b) is int for e in batched.transcript)
    assert all(type(e.answer) is ExactDistance for e in batched.transcript)
    if kind == "adversary":
        # the adaptive backing saw the same rounds in the same order
        assert batched.backing.transcript == per_pair.backing.transcript
        assert batched.backing.paths == per_pair.backing.paths


@pytest.mark.parametrize("kind", sorted(BACKINGS))
def test_empty_batch_charges_nothing(kind):
    o = CountingOracle(BACKINGS[kind]())
    units, eps = o.query_many([], [])
    assert units.shape == eps.shape == (0,)
    assert o.queries_made == 0 and o.transcript == []
    guard = RestrictedOracle(o, [0, 1])
    assert guard.query_many([], [])[0].shape == (0,)
    assert o.queries_made == 0


@pytest.mark.parametrize("kind", sorted(BACKINGS))
def test_out_of_range_batch_raises_and_charges_nothing(kind):
    o = CountingOracle(BACKINGS[kind]())
    n = o.n
    with pytest.raises(IndexError, match=rf"^query \(1, {n}\) outside space of size {n}$"):
        o.query_many([0, 1, -1], [1, n, 0])
    with pytest.raises(IndexError, match=rf"^query \(-1, 0\) outside space of size {n}$"):
        o.query_many([0, -1], [1, 0])
    assert o.queries_made == 0 and o.transcript == []


def test_batch_arrays_must_match():
    o = CountingOracle(LineMetric(5))
    with pytest.raises(ValueError, match="equal-length"):
        o.query_many([0, 1], [1])
    assert o.queries_made == 0


@pytest.mark.parametrize("kind", sorted(BACKINGS))
def test_out_of_subset_batch_raises_and_charges_nothing(kind):
    o = CountingOracle(BACKINGS[kind]())
    guard = RestrictedOracle(o, [4, 1, 2])
    with pytest.raises(QueryOutsideSubsetError, match=r"^query \(2, 3\) leaves the allowed subset$"):
        guard.query_many([1, 4, 2, 0], [2, 1, 3, 1])
    assert o.queries_made == 0 and o.transcript == []
    units, _ = guard.query_many([1, 4], [2, 2])
    assert o.queries_made == 2
    assert units.tolist() == [_single(o.backing.distances([1], [2])).units, _single(o.backing.distances([4], [2])).units]


GUARD_N = 24
GUARD_SUBSETS = {
    "empty": [],
    "one-point": [9],
    "first-point": [0],
    "last-point": [GUARD_N - 1],
    "both-ends": [GUARD_N - 1, 0],
    "gaps": [2, 3, 7, 12, 13, 14, 20],
    "gaps-repeats": [5, 1, 5, 19, 1, 11],
    "everything": list(range(GUARD_N)),
}


@pytest.mark.parametrize("name", sorted(GUARD_SUBSETS))
def test_subset_guard_matches_isin(name):
    S = GUARD_SUBSETS[name]
    o = CountingOracle(_eps_table(GUARD_N, 3))
    guard = RestrictedOracle(o, S)
    lo, hi = (min(S), max(S)) if S else (0, 0)
    probes = np.array(
        [*range(-3, GUARD_N + 3), lo - 1, lo - 2, hi + 1, hi + 2, 10**12, -(10**12), -(2**63), 2**63 - 1],
        dtype=np.int64,
    )
    assert np.array_equal(guard._allows(probes), np.isin(probes, S))
    rng = np.random.default_rng(len(S))
    for _ in range(60):
        size = int(rng.integers(1, 6))
        # mostly points of S, so that some batches pass
        pool = probes if not S or rng.random() < 0.5 else np.array(S)
        a, b = rng.choice(pool, size), rng.choice(pool, size)
        inside = np.isin(a, S) & np.isin(b, S)
        before = o.queries_made
        if inside.all():
            units, _ = guard.query_many(a, b)
            assert units.tolist() == o.backing.units[a, b].tolist()
            assert o.queries_made == before + size
        else:
            k = int(np.flatnonzero(~inside)[0])
            with pytest.raises(QueryOutsideSubsetError, match=rf"^query \({a[k]}, {b[k]}\) leaves the allowed subset$"):
                guard.query_many(a, b)
            assert o.queries_made == before


def test_guarded_batch_matches_guarded_queries():
    table = _eps_table(12, 5)
    S = [0, 3, 4, 7, 11]
    per_pair = RestrictedOracle(CountingOracle(table), S)
    batched = RestrictedOracle(CountingOracle(table), S)
    pairs = [(x, y) for x in S for y in S]
    answers = [per_pair.query(x, y) for x, y in pairs]
    units, eps = batched.query_many(*(np.array(side) for side in zip(*pairs)))
    assert list(zip(units.tolist(), eps.tolist())) == [(d.units, d.eps_count) for d in answers]
    assert batched.queries_made == per_pair.queries_made == len(pairs)
    assert batched._oracle.transcript == per_pair._oracle.transcript


def test_negative_entry_fails_like_a_single_query():
    units = np.array([[0, -1], [-1, 0]])
    o = CountingOracle(MetricTable(units))
    with pytest.raises(ValueError, match="nonnegative"):
        o.query(0, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        o.query_many([0], [1])


# -- solvers against their per-pair references --------------------------


def _tables(small_corpus):
    for kind, n, seed, table in small_corpus:
        yield f"{kind}-{n}-{seed}", table
    for n in (1, 2, 3, 6, 11, 17):
        for seed in range(3):
            yield f"eps-{n}-{seed}", _eps_table(n, seed)


def _subsets(n):
    return [range(n), range(0, n, 2), [n - 1], sorted({0, n // 3, n - 1})]


def test_exact_median_matches_per_pair_reference(small_corpus):
    for name, table in _tables(small_corpus):
        for S in _subsets(table.n):
            ref, new = CountingOracle(table), CountingOracle(table)
            expected = _reference_exact_median(ref, S)
            assert exact_median(new, S) == expected, (name, list(S))
            assert new.queries_made == ref.queries_made, name
            assert new.transcript == ref.transcript, name


class _BatchCountingOracle(CountingOracle):
    """A ``CountingOracle`` that also counts its ``query_many`` calls."""

    batches = 0

    def query_many(self, a, b):
        self.batches += 1
        return super().query_many(a, b)


@pytest.mark.parametrize("make", [lambda: _eps_table(210, 4), lambda: _adversary(n=201, q=19900)],
                         ids=["table-eps", "adversary"])
def test_exact_median_across_block_boundaries(make):
    # 200 points ask 19900 pairs: several blocks, each of whole rows
    S = range(200)
    pairs = 200 * 199 // 2
    assert pairs > 3 * _BLOCK
    ref, new = CountingOracle(make()), _BatchCountingOracle(make())
    assert exact_median(new, S) == _reference_exact_median(ref, S)
    assert new.queries_made == ref.queries_made == pairs
    assert new.transcript == ref.transcript
    assert new.batches <= -(-pairs // _BLOCK) + 1
    if isinstance(ref.backing, Adversary):
        assert new.backing.paths == ref.backing.paths


@pytest.mark.parametrize("missing", [0, 1, 150, 199])
def test_exact_median_guard_sees_every_pair(missing):
    # a subset lacking one point of S: the block holding the first pair
    # that leaves it raises, and charges none of its pairs
    o = CountingOracle(_eps_table(210, 4))
    guard = RestrictedOracle(o, [p for p in range(200) if p != missing])
    first = (0, 1) if missing == 0 else (0, missing)
    with pytest.raises(QueryOutsideSubsetError, match=rf"^query \({first[0]}, {first[1]}\) leaves"):
        exact_median(guard, range(200))
    assert o.queries_made == 0 and o.transcript == []


def test_brute_force_median_reads_the_whole_table_in_place(small_corpus):
    for name, table in _tables(small_corpus):
        n = table.n
        whole = brute_force_median(table)
        assert whole == brute_force_median(table, range(n)), name
        cu, ce = table.units.sum(axis=1), table.eps.sum(axis=1)
        k = int(np.lexsort((np.arange(n), ce, cu))[0])
        assert whole == (k, ExactDistance(int(cu[k]), int(ce[k]))), name


def test_median_cost_matches_per_pair_sum(small_corpus):
    for name, table in _tables(small_corpus):
        ref, new = CountingOracle(table), CountingOracle(table)
        S = range(0, table.n, 2)
        p = table.n - 1
        expected = sum((ref.query(p, y) for y in sorted(set(S))), ZERO)
        assert median_cost(new, p, S) == expected, name
        assert new.transcript == ref.transcript, name


def test_pivot_inner_matches_per_pair_reference(small_corpus):
    for name, table in _tables(small_corpus):
        for S in _subsets(table.n):
            ref, new = CountingOracle(table), CountingOracle(table)
            expected = _reference_pivot_solve(ref, S)
            assert PivotInner().solve(new, S) == expected, (name, list(S))
            assert new.transcript == ref.transcript, name


def test_sampling_inner_matches_per_pair_reference(small_corpus):
    for name, table in _tables(small_corpus):
        for seed, k in ((0, None), (1, 2), (2, 3)):
            inner = SamplingInner(seed, k)
            ref, new = CountingOracle(table), CountingOracle(table)
            expected = _reference_sampling_solve(inner, ref, range(table.n))
            assert inner.solve(new, range(table.n)) == expected, (name, seed, k)
            assert new.transcript == ref.transcript, name


def test_solvers_match_reference_against_a_live_adversary():
    # the loop path keeps an adaptive backing's rounds in order
    for solve, reference in (
        (lambda o, S: exact_median(o, S), _reference_exact_median),
        (lambda o, S: PivotInner().solve(o, S), _reference_pivot_solve),
    ):
        ref, new = CountingOracle(_adversary()), CountingOracle(_adversary())
        assert solve(new, range(6)) == reference(ref, range(6))
        assert new.transcript == ref.transcript
        assert new.backing.paths == ref.backing.paths


@pytest.mark.parametrize("budget", [0, 1, 40])
def test_fuzzer_batch_matches_per_pair_queries(budget):
    # over a table and over the adversary, directly and renamed: the one
    # batch asks, charges and records what the pair-by-pair loop did
    for seed in range(3):
        for make in (lambda: _eps_table(10, seed), lambda: _adversary(q=40, seed=seed)):
            ref, new = CountingOracle(make()), CountingOracle(make())
            n = ref.n
            assert RandomFuzzer(budget, seed).run(new, n) == _PerPairFuzzer(budget, seed).run(ref, n)
            assert new.queries_made == ref.queries_made == budget
            assert new.transcript == ref.transcript
            if isinstance(ref.backing, Adversary):
                assert new.backing.paths == ref.backing.paths
                assert new.backing.pruned_log == ref.backing.pruned_log
        # names are given at first sight, at most 2 * budget + 1 of them
        ref, new = (CountingOracle(_adversary(n=81, q=40, seed=seed)) for _ in range(2))
        got = run_renamed(RandomFuzzer(budget, seed), new, 200, 40)
        want = run_renamed(_PerPairFuzzer(budget, seed), ref, 200, 40)
        assert (got.output, got.output_name, got.queries_used) == (want.output, want.output_name, budget)
        assert got.renaming.mapping == want.renaming.mapping
        assert got.inner_transcript == want.inner_transcript
        assert new.transcript == ref.transcript


def test_table_path_reads_no_single_entry(monkeypatch):
    """Every read a CountingOracle makes of a table is one
    ``MetricTable.distances`` call: one pair for ``query``, the whole
    batch for ``query_many``."""
    table = generate_instance("grid", 36, 0)
    expected = {}
    for inner in (ExactInner(), PivotInner(), SamplingInner(0)):
        expected[inner.name] = restrict_and_solve(CountingOracle(table), 36, 1, inner)
    reads, batches = [], []
    real_distances, real_query_many = MetricTable.distances, CountingOracle.query_many
    monkeypatch.setattr(MetricTable, "distances", lambda self, a, b: reads.append(len(a)) or real_distances(self, a, b))
    monkeypatch.setattr(
        CountingOracle, "query_many", lambda self, a, b: batches.append(len(a)) or real_query_many(self, a, b)
    )
    assert CountingOracle(table).query(0, 7) == ExactDistance(int(table.units[0, 7]))
    assert reads == [1] and batches == []
    for inner in (ExactInner(), PivotInner(), SamplingInner(0)):
        reads.clear()
        batches.clear()
        oracle = CountingOracle(table)
        assert restrict_and_solve(oracle, 36, 1, inner) == expected[inner.name]
        assert reads == batches and sum(reads) == oracle.queries_made > 0, inner.name


# -- the table's sum bound and HopMetric's adjacency ---------------------


def test_metric_table_rejects_entries_past_the_sum_bound():
    with pytest.raises(ValueError, match=r"within \+-4611686018427387903 = \(2\*\*63 - 1\) // 2"):
        MetricTable(np.array([[0, 2**62], [2**62, 0]]))
    with pytest.raises(ValueError, match="eps entries"):
        MetricTable(np.zeros((2, 2), dtype=np.int64), np.array([[0, -(2**62)], [0, 0]]))
    bound = (2**63 - 1) // 2
    table = MetricTable(np.array([[0, bound], [bound, 0]]))
    # a table given no eps holds zeros, unchecked and reported as none
    assert table.has_eps() is False
    assert table.eps.dtype == np.int64 and table.eps.shape == (2, 2) and not table.eps.any()
    assert exact_median(CountingOracle(table), range(2)) == (0, ExactDistance(bound))


def test_backings_refuse_answers_past_the_sum_bound():
    # the 2-point table at its bound, glued to 4 points: point 1's cost 3B would wrap int64,
    # so the glue refuses the base before it answers anything
    b = sum_bound(2)
    with pytest.raises(ValueError, match=r"within 2305843009213693951 = \(2\*\*63 - 1\) // 4"):
        glue_metric(MetricTable(np.array([[0, b], [b, 0]])), 0, 4)
    # the constant backing refuses the same answer on 4 points when built, and a negative one
    for bad in (b, sum_bound(4) + 1, -1):
        with pytest.raises(ValueError, match=r"within 0\.\.2305843009213693951 = \(2\*\*63 - 1\) // 4, so that a sum of 4 answers cannot wrap"):
            ConstantBacking(4, bad)
    # at its 4-point bound every sum of 4 answers is exact
    backing = ConstantBacking(4, sum_bound(4))
    assert CountingOracle(backing).query(1, 2) == ExactDistance(sum_bound(4))
    assert exact_median(CountingOracle(backing), range(4)) == (0, ExactDistance(3 * sum_bound(4)))
    assert median_cost(CountingOracle(backing), 1, range(4)) == ExactDistance(4 * sum_bound(4))
    # at the 4-point bound the glued game is exact, through the glue's batch
    b = sum_bound(4)
    glued = glue_metric(MetricTable(np.array([[0, b], [b, 0]])), 0, 4)
    assert exact_median(CountingOracle(glued), range(4)) == (0, ExactDistance(b, 2))


def test_hop_metric_keeps_its_adjacency_and_rejects_loops():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = True
    none = np.zeros(3, dtype=bool)
    h = HopMetric(adj, none)
    assert h.adjacency is adj and h.clique is none
    # the clique mask is one bool per vertex, never cast
    for mask in (np.zeros(2, dtype=bool), np.zeros(4, dtype=bool), np.zeros((3, 1), dtype=bool),
                 np.zeros(3, dtype=np.int64), np.ones(3, dtype=np.uint8), [0, 1, 1]):
        with pytest.raises(ValueError, match="clique must be a bool mask of length 3"):
            HopMetric(adj, mask)
    adj[2, 2] = True
    with pytest.raises(ValueError, match="empty diagonal"):
        HopMetric(adj, none)
    assert graph_metric(3, [(0, 1), (1, 2)]).units[0, 2] == 2
