import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from medianlab import expander
from medianlab.expander import (
    EXHAUSTIVE_LIMIT,
    InfeasibleError,
    NotRegularError,
    RegularGraph,
    bfs_levels,
    boundary_distance_sum,
    build_regular,
    certify_expansion,
    default_lambda2_threshold,
    verify_level_decay,
)
from medianlab.metric import DisconnectedGraphError, bfs_hop_row

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
C8_EDGES = [(i, (i + 1) % 8) for i in range(8)]


def test_regular_graph_validation():
    g = RegularGraph(4, 3, K4_EDGES)
    assert g.is_connected()
    assert np.flatnonzero(g.adjacency()[0]).tolist() == [1, 2, 3]
    with pytest.raises(NotRegularError):
        RegularGraph(4, 2, K4_EDGES)
    with pytest.raises(ValueError):
        RegularGraph(4, 3, K4_EDGES + [(0, 0)])
    with pytest.raises(ValueError, match=r"edge \(7, 7\) outside vertex range"):
        RegularGraph(4, 3, K4_EDGES + [(7, 7)])
    # reversed, repeated and unsorted pairs normalise to the sorted edge set
    assert RegularGraph(4, 3, [(v, u) for u, v in reversed(K4_EDGES)] + K4_EDGES).edges == tuple(K4_EDGES)


def test_connectivity_of_a_large_graph_stays_sparse():
    edges = expander._circulant_base(8192, 8)
    tracemalloc.start()
    try:
        g = RegularGraph(8192, 8, edges)
        assert g.is_connected()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense 8192 x 8192 bool adjacency alone would be 64 MiB
    assert peak < 16 * 2**20


def test_k4_exhaustive_expansion():
    g = RegularGraph(4, 3, K4_EDGES)
    report = certify_expansion(g, "exhaustive")
    # worst cut: |S|=2, 4 edges leave, alpha = 4/(3*2)
    assert report.alpha_lower == Fraction(2, 3)
    assert report.method == "exhaustive"


def test_k4_spectral_bound_is_valid():
    g = RegularGraph(4, 3, K4_EDGES)
    spectral = certify_expansion(g, "spectral")
    # eigenvalues of K4 are 3, -1, -1, -1, so the bound is (3 - (-1))/6
    assert spectral.lambda2 == pytest.approx(-1.0, abs=1e-9)
    assert abs(spectral.alpha_lower - Fraction(2, 3)) < Fraction(1, 10**6)
    assert spectral.alpha_lower <= Fraction(2, 3)


def test_c8_cycle_expansion_exact():
    g = RegularGraph(8, 2, C8_EDGES)
    report = certify_expansion(g, "exhaustive")
    # a contiguous half-cycle has 2 leaving edges: alpha = 2/(2*4)
    assert report.alpha_lower == Fraction(1, 4)


def test_spectral_never_exceeds_exhaustive_small():
    for n, d, seed in ((8, 3, 0), (10, 3, 1), (12, 4, 0), (14, 4, 2), (16, 5, 0)):
        g = build_regular(n, d, seed)
        ex = certify_expansion(g, "exhaustive")
        sp = certify_expansion(g, "spectral")
        assert Fraction(0) < sp.alpha_lower <= ex.alpha_lower, (n, d, seed)


def test_exhaustive_refuses_large():
    g = build_regular(EXHAUSTIVE_LIMIT + 2, 4, 0)
    with pytest.raises(ValueError):
        certify_expansion(g, "exhaustive")


def test_build_regular_infeasible_cases():
    with pytest.raises(InfeasibleError):
        build_regular(10, 2, 0)  # degree too small
    with pytest.raises(InfeasibleError):
        build_regular(5, 5, 0)  # degree must be below n
    with pytest.raises(InfeasibleError):
        build_regular(7, 3, 0)  # odd stub count


def test_build_regular_deterministic_and_certified():
    a = build_regular(20, 4, seed=9)
    b = build_regular(20, 4, seed=9)
    assert a.edges == b.edges
    assert a.expansion is not None
    assert a.expansion.lambda2 <= default_lambda2_threshold(4)
    assert a.expansion.alpha_lower > 0
    c = build_regular(20, 4, seed=10)
    assert c.edges != a.edges  # different stream, different graph


def test_bfs_levels_and_boundary_sum_on_cycle():
    g = RegularGraph(8, 2, C8_EDGES)
    levels = bfs_levels(g, [0])
    assert [sorted(level) for level in levels] == [[0], [1, 7], [2, 6], [3, 5], [4]]
    # U = four consecutive vertices; distances to the complement are 0 for
    # the two ends and 1 for the two middles... measured from outside U:
    # vertices 1,2 sit at hop 1 and 2 from the boundary, symmetrically
    assert boundary_distance_sum(g, [0, 1, 2, 3]) == 6


def test_bfs_helpers_reject_vertices_outside_the_graph():
    g = RegularGraph(10, 4, expander._circulant_base(10, 4))
    with pytest.raises(ValueError, match="vertex -1 outside"):
        bfs_levels(g, [-1])
    with pytest.raises(ValueError, match="vertex 99 outside"):
        boundary_distance_sum(g, [0, 1, 99])
    with pytest.raises(ValueError, match="vertex -3 outside"):
        verify_level_decay(g, [0, 1, -3], 0.5)


def _dense_bfs_levels(g, root_set):
    """``bfs_levels`` as a dense walk, as it stood; kept as the reference."""
    roots = expander._vertex_set(g, root_set)
    if not roots:
        raise ValueError("root set is empty")
    dist = bfs_hop_row(g.adjacency(), roots)
    return [np.flatnonzero(dist == k).tolist() for k in range(int(dist.max()) + 1)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _level_graphs():
    yield RegularGraph(8, 2, C8_EDGES)
    yield RegularGraph(8, 2, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])  # two 4-cycles
    yield RegularGraph(10, 4, expander._circulant_base(10, 4))
    for n, d, seed in ((16, 4, 5), (24, 3, 1), (40, 6, 2), (96, 8, 3)):
        yield build_regular(n, d, seed=seed)


def test_bfs_level_helpers_match_the_dense_reference(monkeypatch):
    rng = random.Random(11)
    for g in _level_graphs():
        sets = [[0], [g.n - 1], list(range(g.n)), [], [-1], [0, g.n]]
        sets += [rng.sample(range(g.n), rng.randint(1, g.n // 2)) for _ in range(12)]
        alphas = [Fraction(1, 100), g.expansion.alpha_lower if g.expansion else Fraction(1, 8), Fraction(99, 100), 0]
        for vertices in sets:
            got = [_outcome(bfs_levels, g, vertices), _outcome(boundary_distance_sum, g, vertices)]
            got += [_outcome(verify_level_decay, g, vertices, alpha) for alpha in alphas]
            with monkeypatch.context() as m:
                m.setattr(expander, "bfs_levels", _dense_bfs_levels)
                want = [_outcome(_dense_bfs_levels, g, vertices), _outcome(expander.boundary_distance_sum, g, vertices)]
                want += [_outcome(expander.verify_level_decay, g, vertices, alpha) for alpha in alphas]
            assert got == want, (g, vertices)


def test_bfs_levels_stay_sparse():
    g = RegularGraph(8192, 8, expander._circulant_base(8192, 8))
    tracemalloc.start()
    try:
        levels = bfs_levels(g, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, levels)) == g.n
    assert peak < 8 * 2**20, peak  # one dense 8192 x 8192 bool copy is 64 MiB


def test_boundary_distance_sum_full_set_rejected():
    g = RegularGraph(8, 2, C8_EDGES)
    with pytest.raises(ValueError):
        boundary_distance_sum(g, list(range(8)))


def test_level_decay_holds_with_certified_alpha():
    rng = random.Random(3)
    for n, d in ((16, 4), (24, 4), (32, 6)):
        g = build_regular(n, d, seed=5)
        alpha = g.expansion.alpha_lower
        for _ in range(25):
            size = rng.randint(1, n // 2)
            U = rng.sample(range(n), size)
            assert verify_level_decay(g, U, alpha), (n, d, sorted(U))


def test_level_decay_fails_with_inflated_alpha():
    g = build_regular(16, 4, seed=5)
    # an absurd expansion claim must be caught on some set
    bad_alpha = Fraction(99, 100)
    failures = 0
    rng = random.Random(0)
    for _ in range(40):
        U = rng.sample(range(16), rng.randint(2, 8))
        if not verify_level_decay(g, U, bad_alpha):
            failures += 1
    assert failures > 0


def test_level_decay_rejects_large_sets():
    g = build_regular(16, 4, seed=5)
    with pytest.raises(ValueError):
        verify_level_decay(g, list(range(9)), Fraction(1, 4))


def test_certify_expansion_requires_connected():
    two_k4 = K4_EDGES + [(u + 4, v + 4) for u, v in K4_EDGES]
    g = RegularGraph(8, 3, two_k4)
    with pytest.raises(DisconnectedGraphError):
        certify_expansion(g, "spectral")
    with pytest.raises(DisconnectedGraphError):
        certify_expansion(g, "exhaustive")


def test_exhaustive_alpha_agrees_with_bruteforce_tiny():
    # independent oracle: enumerate all subsets directly
    g = build_regular(10, 3, seed=1)
    adj = g.adjacency()
    best = Fraction(10)
    for mask in range(1, 1 << 10):
        size = mask.bit_count()
        if size > 5:
            continue
        inside = [v for v in range(10) if mask >> v & 1]
        cut = sum(
            1
            for v in inside
            for u in np.nonzero(adj[v])[0]
            if not (mask >> int(u) & 1)
        )
        best = min(best, Fraction(cut, 3 * size))
    assert certify_expansion(g, "exhaustive").alpha_lower == best


def _reference_swap_randomize(n, edges, swaps, rng):
    """The per-call swap loop the bulk kernel must reproduce draw for draw."""
    pool = list(edges)
    for _ in range(swaps):
        i = rng.randrange(len(pool))
        j = rng.randrange(len(pool))
        if i == j:
            continue
        a, b = pool[i]
        c, e = pool[j]
        if rng.getrandbits(1):
            c, e = e, c
        if len({a, b, c, e}) < 4:
            continue
        new1 = (min(a, c), max(a, c))
        new2 = (min(b, e), max(b, e))
        if new1 in edges or new2 in edges:
            continue
        edges.discard((min(a, b), max(a, b)))
        edges.discard((min(c, e), max(c, e)))
        edges.add(new1)
        edges.add(new2)
        pool[i] = new1
        pool[j] = new2


# pool sizes n*d/2: 32 and 4096 are powers of two (half of all draws are
# rejected), 45, 96 and 5044 are not
@pytest.mark.parametrize(
    "n, d, swaps",
    [(16, 4, 3000), (1024, 8, 9000), (30, 3, 2500), (24, 8, 2000), (1261, 8, 6000)],
)
def test_swap_kernel_replays_the_per_call_stream(n, d, swaps):
    ref_rng, rng = random.Random(n * 7 + d), random.Random(n * 7 + d)
    ref_rng.gauss(0.0, 1.0)  # leaves a cached gauss value in the state
    rng.gauss(0.0, 1.0)
    ref_edges, edges = expander._circulant_base(n, d), expander._circulant_base(n, d)
    for _ in range(2):  # a second call continues the same stream, as a retry does
        _reference_swap_randomize(n, ref_edges, swaps, ref_rng)
        expander._swap_randomize(n, edges, swaps, rng)
        assert edges == ref_edges
        assert list(edges) == list(ref_edges)
        assert rng.getstate() == ref_rng.getstate()
    assert rng.random() == ref_rng.random()


@pytest.fixture()
def fresh_memo(monkeypatch):
    memo: dict = {}
    # raising=False keeps the golden test runnable on a build without a memo
    monkeypatch.setattr(expander, "_anchor_memo", memo, raising=False)
    return memo


def _anchor_digest(cases) -> str:
    h = hashlib.sha256()
    for n, d, seed, threshold, attempts in cases:
        g = build_regular(n, d, seed, lambda2_threshold=threshold, max_attempts=attempts)
        rep = g.expansion
        alpha = f"{rep.alpha_lower.numerator}/{rep.alpha_lower.denominator}"
        fields = (n, d, seed, threshold, attempts, g.edges, g.build_attempts, rep.method, alpha)
        h.update(repr(fields + (f"{rep.lambda2:.9f}",)).encode())
    return h.hexdigest()


# recorded with the per-call swap loop, before the bulk replay and the memo
GOLDEN_ANCHOR_DIGEST = "f1484440effa7b2bfb551f9d30ba8560bc7bce1debcb55e2d38de1ee65e6a769"
GOLDEN_ANCHOR_CASES = [(n, 8, s, None, 40) for n in (24, 64, 256, 1024, 1261) for s in (0, 1, 2)]
GOLDEN_ANCHOR_CASES += [(16, 5, 0, None, 40), (30, 3, 1, None, 40)]
# thresholds just below the first sample's lambda2 force 2, 3 and 2 attempts
GOLDEN_RETRY_CASES = [(24, 8, 0, 3.9, 6), (64, 8, 0, 4.91, 6), (256, 8, 2, 5.17, 4)]


def test_build_regular_golden_digest(fresh_memo):
    retries = [build_regular(n, d, s, lambda2_threshold=t, max_attempts=m).build_attempts
               for n, d, s, t, m in GOLDEN_RETRY_CASES]
    assert retries == [2, 3, 2]
    fresh_memo.clear()
    assert _anchor_digest(GOLDEN_ANCHOR_CASES + GOLDEN_RETRY_CASES) == GOLDEN_ANCHOR_DIGEST


def test_memo_hit_is_a_fresh_graph_equal_to_a_cold_build(fresh_memo):
    a = build_regular(40, 4, seed=3)
    b = build_regular(40, 4, seed=3)
    fresh_memo.clear()
    cold = build_regular(40, 4, seed=3)
    assert b is not a and b is not cold
    for g in (a, b):
        assert g.edges == cold.edges
        assert g.build_attempts == cold.build_attempts
        assert g.expansion == cold.expansion
    assert all(type(u) is int and type(v) is int for u, v in b.edges)


def test_memo_hit_skips_certification(fresh_memo, monkeypatch):
    calls = []
    real = expander.certify_expansion

    def counting(g, method="spectral"):
        calls.append(g.n)
        return real(g, method)

    monkeypatch.setattr(expander, "certify_expansion", counting)
    build_regular(40, 4, seed=3)
    cold_calls = len(calls)
    assert cold_calls >= 1
    build_regular(40, 4, seed=3)
    assert len(calls) == cold_calls
    # a different threshold or attempt cap is a different build
    build_regular(40, 4, seed=3, lambda2_threshold=default_lambda2_threshold(4) + 0.5)
    assert len(calls) > cold_calls
    cold_calls = len(calls)
    build_regular(40, 4, seed=3, max_attempts=39)
    assert len(calls) > cold_calls
    assert len(fresh_memo) == 3


def test_failed_builds_are_not_memoised(fresh_memo):
    with pytest.raises(InfeasibleError):
        build_regular(9, 3, 0)
    with pytest.raises(RuntimeError):
        build_regular(40, 4, 3, lambda2_threshold=-10.0, max_attempts=2)
    assert fresh_memo == {}


def test_memo_hit_owns_its_adjacency(fresh_memo):
    cold = build_regular(40, 4, seed=3)
    clean = cold.csr.toarray()
    hit = build_regular(40, 4, seed=3)
    for g in (cold, hit):
        g.csr.data[:] = 0.0
    fresh = build_regular(40, 4, seed=3)
    assert np.array_equal(fresh.csr.toarray(), clean)


def test_unseeded_builds_are_not_memoised(fresh_memo):
    g = build_regular(40, 4, seed=None)
    assert g.expansion is not None
    assert fresh_memo == {}


def test_memo_keeps_the_most_recent_builds(fresh_memo):
    size = expander._ANCHOR_MEMO_SIZE
    for seed in range(size + 1):
        build_regular(12, 4, seed)
    assert len(fresh_memo) == size
    assert (12, 4, 0, default_lambda2_threshold(4), 40) not in fresh_memo
    build_regular(12, 4, 1)  # a hit becomes the most recent entry
    assert next(reversed(fresh_memo))[2] == 1
