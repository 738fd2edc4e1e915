import json
import random
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

import medianlab.metric as metric_module
from medianlab import fileio, harness
from medianlab.distances import EPS, ONE, ZERO, ExactDistance
from medianlab.fileio import (
    load_metric_any,
    read_metric_file,
    read_metric_json,
    write_edge_list,
    write_metric_file,
    write_metric_json,
)
from medianlab.metric import (
    CountingOracle,
    DisconnectedGraphError,
    HopMetric,
    MetricTable,
    QueryOutsideSubsetError,
    RestrictedOracle,
    TranscriptEntry,
    _single,
    bfs_hop_row,
    brute_force_cost,
    brute_force_median,
    exact_median,
    graph_metric,
    is_metric,
    replay_verify,
    sum_bound,
    validate_metric,
    Violation,
)
from medianlab.harness import ConstantBacking, generate_instance, play_adversary_game
from medianlab.players import make_player

from conftest import LineMetric, median_cost, subset_size_grid

P4_EDGES = [(0, 1), (1, 2), (2, 3)]
STAR_EDGES = [(0, 1), (0, 2), (0, 3)]


@pytest.fixture(scope="module")
def p4():
    return graph_metric(4, P4_EDGES)


def test_graph_metric_p4_frozen(p4):
    expected = np.array(
        [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]], dtype=np.int64
    )
    assert (p4.units == expected).all()
    assert not p4.has_eps()


def test_graph_metric_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        graph_metric(4, [(0, 1), (2, 3)])


def test_path_table_cast_in_place_matches_a_whole_cast():
    """The row-by-row in-place cast equals csgraph's table cast at once, for every instance kind."""
    for n in (1, 64, 150):
        weights = np.triu(np.random.default_rng(n).integers(1, 10, size=(n, n)), 1)
        graphs = {
            "star-path": metric_module.edge_graph(n, harness._star_path_edges(n)),
            "random-graph": metric_module.edge_graph(n, harness._random_graph_edges(n, random.Random(n))),
            "grid": metric_module.edge_graph(n, harness._grid_edges(n)),
            "table": weights + weights.T,
        }
        for kind, graph in graphs.items():
            got = metric_module._path_table(graph)
            assert got.dtype == np.int64 and got.flags.c_contiguous, (kind, n)
            want = scipy.sparse.csgraph.shortest_path(graph, directed=False).astype(np.int64)
            assert np.array_equal(got, want), (kind, n)
    cut = np.zeros((3, 3))
    cut[1, 2] = cut[2, 1] = 1
    for graph in (metric_module.edge_graph(4, [(0, 1), (2, 3)]), cut):
        with pytest.raises(DisconnectedGraphError, match=r"^vertex 0 cannot reach the whole graph$"):
            metric_module._path_table(graph)


def test_bfs_hop_row_frozen():
    adj = np.zeros((4, 4), dtype=bool)
    for u, v in P4_EDGES:
        adj[u, v] = adj[v, u] = True
    assert bfs_hop_row(adj, 0).tolist() == [0, 1, 2, 3]
    adj2 = np.zeros((3, 3), dtype=bool)
    adj2[0, 1] = adj2[1, 0] = True
    assert bfs_hop_row(adj2, 0).tolist() == [0, 1, -1]


def test_bfs_clique_mask_matches_materialised_clique():
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(2, 40))
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.0, 0.15), 1)
        adj = upper | upper.T
        clique = rng.random(n) < rng.uniform(0.0, 0.6)
        full = adj | np.outer(clique, clique)
        sources = [int(rng.integers(n)), sorted(set(rng.integers(n, size=3).tolist()))]
        for source in sources:
            got = bfs_hop_row(adj, source, clique=clique)
            want = bfs_hop_row(full, source)
            assert got.tolist() == want.tolist(), (trial, source)


def _top_down_bfs_hop_row(adjacency, source, clique=None):
    """``bfs_hop_row`` as it stood before the bottom-up step, kept as the reference."""
    dist = np.full(adjacency.shape[0], -1, dtype=np.int64)
    dist[source] = 0
    frontier = dist == 0
    level = 0
    while frontier.any():
        level += 1
        reach = adjacency[frontier].any(axis=0)
        if clique is not None and (frontier & clique).any():
            reach |= clique
            clique = None  # the whole mask is reached; no later level adds to it
        frontier = reach & (dist < 0)
        dist[frontier] = level
    return dist


def _random_symmetric(rng, n):
    upper = np.triu(rng.random((n, n)) < rng.choice([0.0, 0.02, 0.1, 0.4, 0.9]), 1)
    return upper | upper.T


def _assert_same_rows(adj, clique, sources, tag):
    for source in sources:
        got = bfs_hop_row(adj, source, clique=clique)
        want = _top_down_bfs_hop_row(adj, source, clique=clique)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), (tag, source)


def test_bfs_hop_row_matches_top_down_reference():
    rng = np.random.default_rng(17)
    sizes = list(range(1, 41)) + [64, 100, 137, 200]
    for n in sizes:
        adj = _random_symmetric(rng, n)
        if n >= 4:  # two halves with no edge between them
            half = n // 2
            adj[:half, half:] = adj[half:, :half] = False
        masks = {
            "none": None,
            "empty": np.zeros(n, dtype=bool),
            "full": np.ones(n, dtype=bool),
            "random": rng.random(n) < rng.uniform(0.1, 0.9),
        }
        sources = [0, n - 1, int(rng.integers(n)), sorted(set(rng.integers(n, size=3).tolist()))]
        for name, clique in masks.items():
            _assert_same_rows(adj, clique, sources, (n, name))


def test_bfs_hop_row_matches_top_down_reference_in_finished_games():
    for n, q, algo in ((256, 256, "exact"), (1024, 1024, "random")):
        cert, _ = play_adversary_game(n, q, 8, make_player(algo, budget=q, seed=1), seed=1, metric_axioms_cap=0)
        perm, alive = cert.perm, cert.final_metric.clique
        assert not alive.all()
        pruned = np.flatnonzero(~alive).tolist()
        sources = list(range(0, n, 1 if n <= 256 else 16)) + pruned + [pruned[:3], [0, n - 1]]
        _assert_same_rows(perm, alive, sources, (n, algo))
        _assert_same_rows(perm, None, sources[::8], (n, algo, "perm only"))


def test_bfs_hop_row_gathers_only_the_smaller_side():
    # a near-clique: the frontier after one level is almost every vertex,
    # so a top-down gather would copy almost the whole matrix
    n = 1024
    idx = np.arange(n)
    adj = np.zeros((n, n), dtype=bool)
    adj[idx, (idx + 1) % n] = adj[(idx + 1) % n, idx] = True
    clique = np.ones(n, dtype=bool)
    clique[::100] = False
    for source in (0, 1, [0, 500]):
        tracemalloc.start()
        try:
            row = bfs_hop_row(adj, source, clique=clique)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row.tolist() == _top_down_bfs_hop_row(adj, source, clique=clique).tolist()
        assert peak < n * n // 8, (source, peak)


def test_brute_force_median_p4(p4):
    assert brute_force_median(p4) == (1, ExactDistance(4))
    # restricted to a prefix, cost is measured inside the subset only
    assert brute_force_median(p4, [0, 1]) == (0, ExactDistance(1))
    assert brute_force_cost(p4, 0) == ExactDistance(6)
    assert brute_force_cost(p4, 0, [0, 1]) == ExactDistance(1)


def test_brute_force_median_star():
    star = graph_metric(4, STAR_EDGES)
    assert brute_force_median(star) == (0, ExactDistance(3))


def test_brute_force_median_breaks_ties_low(p4):
    # points 1 and 2 of P4 both cost 4; the lower index wins
    c1 = brute_force_cost(p4, 1)
    c2 = brute_force_cost(p4, 2)
    assert c1 == c2 == ExactDistance(4)
    assert brute_force_median(p4)[0] == 1


def test_brute_force_median_eps_tiebreak():
    # equal units, the eps component must decide
    units = np.array([[0, 2, 2], [2, 0, 2], [2, 2, 0]], dtype=np.int64)
    eps = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=np.int64)
    t = MetricTable(units, eps)
    point, cost = brute_force_median(t)
    assert point == 1
    assert cost == ExactDistance(4, 1)


def test_validate_metric_accepts(p4):
    assert validate_metric(p4) == []
    assert is_metric(p4)


def test_validate_metric_finds_each_violation_kind(p4):
    u = p4.units.copy()
    u[0, 0] = 1
    kinds = {v.kind for v in validate_metric(MetricTable(u))}
    assert "identity" in kinds

    u = p4.units.copy()
    u[0, 1] = 5  # breaks symmetry (and more)
    kinds = {v.kind for v in validate_metric(MetricTable(u))}
    assert "symmetry" in kinds

    u = p4.units.copy()
    u[0, 1] = u[1, 0] = 0
    kinds = {v.kind for v in validate_metric(MetricTable(u))}
    assert "positivity" in kinds

    u = p4.units.copy()
    u[0, 3] = u[3, 0] = 9
    kinds = {v.kind for v in validate_metric(MetricTable(u))}
    assert kinds == {"triangle"}


def test_validate_metric_triangle_is_eps_aware():
    # units alone satisfy the triangle inequality, the eps parts break it
    units = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=np.int64)
    eps = np.array([[0, 0, 5], [0, 0, 1], [5, 1, 0]], dtype=np.int64)
    units[1, 2] = units[2, 1] = 0
    t = MetricTable(units, eps)
    # d(0,2) = 1+5eps > d(0,1) + d(1,2) = 1+eps
    kinds = {v.kind for v in validate_metric(t)}
    assert "triangle" in kinds


def _reference_validate_metric(table):
    # the two separate checkers this library had before they were folded
    # into one generator; kept as the reference for order and verdicts.
    # Its triangle loop sums in int64 with fresh temporaries, against the
    # library's narrowed dtype and reused buffers
    u, e = table.units, table.eps
    n = table.n
    out = []

    diag_bad = np.nonzero((np.diagonal(u) != 0) | (np.diagonal(e) != 0))[0]
    for x in diag_bad:
        out.append(Violation("identity", (int(x),)))

    neg = (u < 0) | (e < 0)
    zero = (u == 0) & (e == 0)
    off = ~np.eye(n, dtype=bool)
    for x, y in np.argwhere((zero | neg) & off):
        if x < y or neg[x, y]:
            out.append(Violation("positivity", (int(x), int(y))))

    asym = (u != u.T) | (e != e.T)
    for x, y in np.argwhere(asym):
        if x < y:
            out.append(Violation("symmetry", (int(x), int(y))))

    for y in range(n):
        su = u[:, y, None] + u[None, y, :]
        se = e[:, y, None] + e[None, y, :]
        bad = (u > su) | ((u == su) & (e > se))
        for x, z in np.argwhere(bad):
            if x != y and z != y and x != z:
                out.append(Violation("triangle", (int(x), int(y), int(z))))
    return out


def _reference_is_metric(table):
    u, e = table.units, table.eps
    n = table.n
    if (np.diagonal(u) != 0).any() or (np.diagonal(e) != 0).any():
        return False
    off = ~np.eye(n, dtype=bool)
    if ((u < 0) | (e < 0)).any() or (((u == 0) & (e == 0)) & off).any():
        return False
    if (u != u.T).any() or (e != e.T).any():
        return False
    for y in range(n):
        su = u[:, y, None] + u[None, y, :]
        se = e[:, y, None] + e[None, y, :]
        if ((u > su) | ((u == su) & (e > se))).any():
            return False
    return True


@st.composite
def small_tables(draw):
    n = draw(st.integers(1, 8))

    def square(values):
        return np.array(draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n)),
                        dtype=np.int64).reshape(n, n)

    if draw(st.booleans()):
        # a true metric with a few entries overwritten, so clean tables and
        # lone triangle breaks are common
        units = generate_instance("table", n, draw(st.integers(0, 50))).units.copy()
        eps = np.zeros_like(units)
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            units[i, j] = draw(st.integers(-1, 4))
            eps[i, j] = draw(st.integers(-1, 1))
    else:
        units = square(st.integers(-1, 4))
        eps = square(st.integers(-1, 1))
    if draw(st.booleans()):
        units = np.triu(units) + np.triu(units, 1).T
        eps = np.triu(eps) + np.triu(eps, 1).T
    return MetricTable(units, eps)


@st.composite
def wide_tables(draw):
    """Tables whose largest |entry| sits at a dtype edge of the triangle sums.

    2 * max|entry| lands just under or at 2**15 and 2**31, or the entries
    reach sum_bound(n); the values include halves of the top, so exact
    ties u(x, z) == u(x, y) + u(y, z) at that scale are common.
    """
    n = draw(st.integers(1, 7))
    tops = [2**14 - 1, 2**14, 2**30 - 1, 2**30, sum_bound(n)]

    symmetric = draw(st.booleans())

    def square(top):
        values = st.sampled_from([0, 1, 2, top // 2, top - top // 2, top - 1, top, -1, -top])
        cells = draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n))
        table = np.array(cells, dtype=np.int64).reshape(n, n)
        if symmetric:
            table = np.triu(table, 1) + np.triu(table, 1).T
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[i, j] = table[j, i] = draw(st.sampled_from([top, -top]))  # the top is always reached
        return table

    units = square(draw(st.sampled_from(tops)))
    eps = square(draw(st.sampled_from(tops))) if draw(st.booleans()) else np.zeros_like(units)
    return MetricTable(units, eps)


@settings(max_examples=800, deadline=None)
@given(st.one_of(small_tables(), wide_tables()))
def test_axiom_checker_matches_reference(table):
    assert validate_metric(table) == _reference_validate_metric(table)
    assert is_metric(table) == _reference_is_metric(table)


def _tables_around_twice_the_minimum():
    """Seeded tables whose off-diagonal entries sit at m, at 2m and just either side of 2m.

    One cell holds m, the smallest off-diagonal entry; odd k carry eps
    parts, every fourth table adds zero and negative entries, and two of
    three are symmetric.  k = 1 draws only m and exactly 2m; k = 5 breaks
    the diagonal.
    """
    rng = np.random.default_rng(29)
    for n in (*range(7), 9, 17, 40):
        for k in range(12):
            mu, me = int(rng.integers(1, 4)), int(rng.integers(1, 3)) if k % 2 else 0
            below = (2 * mu, 2 * me - 1) if me else (2 * mu - 1, 0)
            palette = [(mu, me), (mu, me + 1), below, (2 * mu, 2 * me), (2 * mu, 2 * me + 1), (2 * mu + 1, 0)]
            if k == 1:
                palette = [(mu, me), (2 * mu, 2 * me)]
            if k % 4 == 3:
                palette += [(0, 0), (-1, 0), (mu, -1)]
            cells = rng.integers(len(palette), size=(n, n))
            units, eps = (np.array([entry[i] for entry in palette], dtype=np.int64)[cells] for i in (0, 1))
            if k % 3:
                units, eps = (np.triu(t) + np.triu(t, 1).T for t in (units, eps))
            np.fill_diagonal(units, 0)
            np.fill_diagonal(eps, 0)
            if n > 1:
                units[0, 1] = units[1, 0] = mu
                eps[0, 1] = eps[1, 0] = me
            if k == 5 and n:
                units[n - 1, n - 1] = 1
            yield n, k, MetricTable(units, eps)


def test_axiom_checker_matches_the_full_triangle_loop_around_twice_the_minimum():
    # the triangle pass skips every row whose entries are all at most 2m;
    # the reference still scans every row
    kinds = set()
    for n, k, table in _tables_around_twice_the_minimum():
        expected = _reference_validate_metric(table)
        assert validate_metric(table) == expected, (n, k)
        assert is_metric(table) == _reference_is_metric(table) == (not expected), (n, k)
        kinds.update((v.kind, bool(k % 2)) for v in expected)
        if n > 2 and k == 1:
            assert not expected, n  # entries of m and 2m only: a metric with no row scanned
    assert {kind for kind, _ in kinds} == {"identity", "positivity", "symmetry", "triangle"}
    assert {("triangle", False), ("triangle", True)} <= kinds


def test_final_metric_of_diameter_two_makes_no_triangle_pass(monkeypatch):
    passes = []
    scan = metric_module._triangles

    def counted(table, rows):
        passes.append(rows.tolist())
        yield from scan(table, rows)

    monkeypatch.setattr(metric_module, "_triangles", counted)
    cert, checks = play_adversary_game(256, 256, 4, make_player("random", 256, 0), seed=0, metric_axioms_cap=256)
    assert checks["metric_axioms"]
    table = cert.final_metric.to_table(256)
    assert int(table.units.max()) == 2
    passes.clear()
    assert is_metric(table)
    assert passes == []
    # diameter 3: the pass reads exactly the rows that hold a 3
    cert, _ = play_adversary_game(256, 64, 4, make_player("exact", 64, 0), seed=0, metric_axioms_cap=0)
    table = cert.final_metric.to_table(256)
    assert int(table.units.max()) == 3
    assert is_metric(table)
    assert passes == [np.flatnonzero((table.units == 3).any(axis=1)).tolist()]
    assert 0 < len(passes[0]) < 256


def test_counting_oracle_counts_repeats(p4):
    o = CountingOracle(p4)
    for _ in range(3):
        o.query(0, 1)
    assert o.queries_made == 3
    assert len(o.transcript) == 3
    assert o.transcript[0] == (0, 1, ONE)
    assert o.transcript[2].answer == ONE
    with pytest.raises(IndexError):
        o.query(0, 4)


def test_counting_oracle_self_query_is_legal_and_counted(p4):
    o = CountingOracle(p4)
    assert o.query(2, 2) == ZERO
    assert o.queries_made == 1


def test_restricted_oracle_guards(p4):
    o = RestrictedOracle(CountingOracle(p4), [0, 1])
    assert o.query(0, 1) == ONE
    with pytest.raises(QueryOutsideSubsetError):
        o.query(0, 2)
    assert o.queries_made == 1


def test_stub_oracle_records():
    s = CountingOracle(ConstantBacking(5, answer=3), record_transcript=True)
    assert s.query(0, 4) == ExactDistance(3)
    assert s.query(2, 2) == ExactDistance(3)
    assert [(e.a, e.b) for e in s.transcript] == [(0, 4), (2, 2)]
    assert s.queries_made == 2


def test_exact_median_matches_brute_force(p4):
    o = CountingOracle(p4)
    point, cost = exact_median(o, range(4))
    assert (point, cost) == brute_force_median(p4)
    assert o.queries_made == 6  # C(4,2)


def test_exact_median_on_subset(p4):
    o = CountingOracle(p4)
    point, cost = exact_median(o, [0, 2, 3])
    # costs within {0,2,3}: 0 -> 2+3=5, 2 -> 2+1=3, 3 -> 3+1=4
    assert (point, cost) == (2, ExactDistance(3))
    assert o.queries_made == 3


def test_median_cost_includes_self(p4):
    o = CountingOracle(p4)
    assert median_cost(o, 1, range(4)) == ExactDistance(4)
    assert o.queries_made == 4


def test_center_lemmas_on_corpus(small_corpus):
    """The global median is within a factor two of the subset median, in
    subset-cost terms: sum_S d(x*, y) >= |S| * rbar / 2 and the subset
    median satisfies sum_S d(x*_S, y) <= |S| * rbar."""
    for kind, n, seed, table in small_corpus:
        global_median, _ = brute_force_median(table)
        for s in subset_size_grid(n):
            S = list(range(s))
            T = int(table.units[np.ix_(S, S)].sum())  # s^2 * rbar
            lhs_global = int(table.units[global_median, S].sum())
            assert 2 * s * lhs_global >= T, (kind, n, seed, s)
            sub_median, sub_cost = brute_force_median(table, S)
            assert s * sub_cost.units <= T, (kind, n, seed, s)


def test_hop_metric_agrees_with_table():
    table = graph_metric(9, [(i, i + 1) for i in range(8)])
    adj = np.zeros((9, 9), dtype=bool)
    for i in range(8):
        adj[i, i + 1] = adj[i + 1, i] = True
    h = HopMetric(adj, np.zeros(9, dtype=bool))
    assert _single(h.distances([0], [8])) == ExactDistance(8)
    assert h.cost_of(4) == sum(abs(4 - j) for j in range(9))
    assert (h.to_table().units == table.units).all()


def _random_connected_adjacency(rng, n, chords):
    adj = np.zeros((n, n), dtype=bool)
    for i in range(1, n):  # random tree plus chords
        j = int(rng.integers(0, i))
        adj[i, j] = adj[j, i] = True
    for _ in range(chords):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a != b:
            adj[a, b] = adj[b, a] = True
    return adj


def test_hop_distance_equals_row_entry():
    # one pair at a time: 0 and 1 come from the adjacency, the rest from a BFS row
    rng = np.random.default_rng(5)
    for trial in range(30):
        n = int(rng.integers(1, 20))
        adj = _random_connected_adjacency(rng, n, int(rng.integers(0, n * n // 2 + 1)))
        none = np.zeros(n, dtype=bool)
        h, rows = HopMetric(adj, none), HopMetric(adj, none)
        for a in range(n):
            for b in range(n):
                assert _single(h.distances([a], [b])) == ExactDistance(int(rows.row(a)[b])), (trial, a, b)


def test_hop_distances_equal_per_pair_distance():
    rng = np.random.default_rng(23)
    for trial in range(30):
        n = int(rng.integers(1, 25))
        adj = _random_connected_adjacency(rng, n, int(rng.integers(0, n + 1)))
        clique = rng.random(n) < rng.uniform(0.0, 0.7)
        a, b = (ix.ravel() for ix in np.indices((n, n)))
        units, eps = HopMetric(adj, clique).distances(a, b)
        pairs = HopMetric(adj, clique)
        want = [_single(pairs.distances([x], [y])) for x, y in zip(a.tolist(), b.tolist())]
        assert units.dtype == eps.dtype == np.int64
        assert units.tolist() == [d.units for d in want], trial
        assert not eps.any()


def test_hop_distances_read_the_same_rows_as_per_pair_distance(monkeypatch):
    rng = np.random.default_rng(29)
    adj = _random_connected_adjacency(rng, 40, 10)
    clique = rng.random(40) < 0.3
    a, b = rng.integers(40, size=300), rng.integers(40, size=300)
    rows = {}
    real = metric_module.bfs_hop_row
    for name in ("batch", "pairs"):
        calls = []
        monkeypatch.setattr(metric_module, "bfs_hop_row", lambda adj, s, clique=None: calls.append(s) or real(adj, s, clique=clique))
        h = HopMetric(adj, clique)
        if name == "batch":
            h.distances(a, b)
        else:
            [_single(h.distances([x], [y])) for x, y in zip(a.tolist(), b.tolist())]
        rows[name] = sorted(calls)
    assert rows["batch"] == rows["pairs"]
    assert len(rows["batch"]) > 1


def test_hop_distances_raise_on_disconnected_graph():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 0] = True  # vertex 2 is cut off
    for a, b in (([0], [1]), ([1], [0]), ([2], [2]), ([0, 2], [2, 0])):
        with pytest.raises(DisconnectedGraphError):
            HopMetric(adj, np.zeros(3, dtype=bool)).distances(np.array(a), np.array(b))


def test_hop_metric_rejects_points_outside_the_space():
    adj = np.zeros((4, 4), dtype=bool)
    for u, v in P4_EDGES:
        adj[u, v] = adj[v, u] = True
    h = HopMetric(adj, np.zeros(4, dtype=bool))
    for p in (-1, 4):
        with pytest.raises(IndexError):
            h.row(p)
        with pytest.raises(IndexError):
            h.cost_of(p)
        for a, b in ((p, 0), (0, p), (p, p)):
            with pytest.raises(IndexError):
                h.distances(np.array([a]), np.array([b]))
            with pytest.raises(IndexError):
                h.distances(np.array([1, a]), np.array([2, b]))
    assert _single(h.distances([3], [0])) == ExactDistance(3)


def test_replay_rejects_out_of_range_and_wrong_eps_entries():
    adj = np.zeros((4, 4), dtype=bool)
    for u, v in P4_EDGES:
        adj[u, v] = adj[v, u] = True
    honest = [TranscriptEntry(0, 3, ExactDistance(3)), TranscriptEntry(2, 1, ONE), TranscriptEntry(1, 1, ZERO)]

    class Spy(HopMetric):
        asked = 0

        def distances(self, a, b):
            Spy.asked += 1
            return super().distances(a, b)

    assert replay_verify(honest, Spy(adj, np.zeros(4, dtype=bool)))
    assert Spy.asked == 1
    # (-1, 0) wraps to d(3, 0) = 3 on a numpy row; it must match nothing
    for forged in ((-1, 0, 3), (0, -1, 3), (4, 0, 1), (0, 2**70, 1)):
        spy = Spy(adj, np.zeros(4, dtype=bool))
        Spy.asked = 0
        assert not replay_verify(honest + [TranscriptEntry(forged[0], forged[1], ExactDistance(forged[2]))], spy)
        assert Spy.asked == 0, forged
    assert not replay_verify(honest + [TranscriptEntry(0, 3, ExactDistance(3, 1))], Spy(adj, np.zeros(4, dtype=bool)))
    assert not replay_verify([TranscriptEntry(0, 3, ExactDistance(2**70))], Spy(adj, np.zeros(4, dtype=bool)))
    # any other metric is asked the same one batch, after the same range check
    table = graph_metric(4, P4_EDGES)
    assert replay_verify(honest, LineMetric(4))  # the path 0-1-2-3 is the line
    assert not replay_verify([TranscriptEntry(-1, 0, ONE)], LineMetric(4))
    assert replay_verify(honest, table)
    assert not replay_verify([TranscriptEntry(-1, 0, ExactDistance(3))], table)
    assert replay_verify([], table)


def test_hop_metric_rejects_an_asymmetric_adjacency():
    for n in (2, 5, 700):
        adj = np.zeros((n, n), dtype=bool)
        adj[0, n - 1] = True
        with pytest.raises(ValueError, match="symmetric"):
            HopMetric(adj, np.zeros(n, dtype=bool))
        adj[n - 1, 0] = True
        HopMetric(adj, np.zeros(n, dtype=bool))


def test_hop_metric_symmetry_check_makes_no_square_temporary():
    n = 2048
    adj = np.zeros((n, n), dtype=bool)
    idx = np.arange(n)
    adj[idx, (idx + 1) % n] = adj[(idx + 1) % n, idx] = True
    clique = np.zeros(n, dtype=bool)
    tracemalloc.start()
    try:
        HopMetric(adj, clique)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n // 8, peak


def test_hop_distance_raises_on_disconnected_graph():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 0] = True  # vertex 2 is cut off
    for a, b in ((0, 1), (1, 0), (2, 2), (0, 0)):
        h = HopMetric(adj, np.zeros(3, dtype=bool))
        for _ in range(2):  # the failed check is not cached as a pass
            with pytest.raises(DisconnectedGraphError):
                h.distances([a], [b])


def test_hop_metric_cheapest_matches_argmin():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(4, 24))
        adj = _random_connected_adjacency(rng, n, n // 2)
        h = HopMetric(adj, np.zeros(n, dtype=bool))
        costs = [h.cost_of(v) for v in range(n)]
        expect = min(range(n), key=lambda v: (costs[v], v))
        v, c = h.cheapest(range(n))
        assert (v, c) == (expect, costs[expect])
        # and on a strict subset of candidates
        cands = list(range(0, n, 2))
        expect_sub = min(cands, key=lambda v: (costs[v], v))
        assert h.cheapest(cands) == (expect_sub, costs[expect_sub])


def _adjacency(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return adj


def _mask(n, vertices):
    return np.isin(np.arange(n), list(vertices))


# clique {0, 1, 2, 3}; 4 and 7 one hop from it, 5 two hops, 6 three
_DEEP_EDGES = [(0, 4), (4, 5), (5, 6), (1, 7)]


def test_cheapest_refuses_a_candidate_outside_the_space():
    path = HopMetric(_adjacency(4, P4_EDGES), np.zeros(4, dtype=bool))
    clique = HopMetric(_adjacency(8, _DEEP_EDGES), _mask(8, range(4)))
    for h, cands in ((path, [1, -4]), (path, [-1, 0, 1, 2, 3]), (path, [0, 4]), (clique, [0, -1]), (clique, [0, 8])):
        with pytest.raises(IndexError):
            h.cheapest(cands)


def test_cheapest_is_the_argmin_of_cost_of_at_every_depth():
    cases = [
        (8, _DEEP_EDGES, range(4)),
        (8, _DEEP_EDGES + [(2, 5)], range(4)),  # 5 and so 6 come nearer
        (6, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5)], [0]),  # a one-vertex clique
        (6, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5)], [2, 5]),
        (1, [], [0]),
        (1, [], []),
        (2, [(0, 1)], [1]),
    ]
    for n, edges, clique in cases:
        adj, mask = _adjacency(n, edges), _mask(n, clique)
        costs = [HopMetric(adj, mask).cost_of(v) for v in range(n)]
        cand_lists = [range(n), list(clique), [v for v in range(n) if v not in clique]]
        cand_lists += [[v, w] for v in range(n) for w in range(v, n)]
        for cands in filter(len, cand_lists):
            want = min(cands, key=lambda v: (costs[v], v))
            assert HopMetric(adj, mask).cheapest(cands) == (want, costs[want]), (n, edges, clique, list(cands))


def test_cheapest_raises_when_a_vertex_cannot_reach_the_clique():
    for edges in ([(0, 4)], [(0, 4), (5, 6)], [(5, 6), (6, 4)]):
        h = HopMetric(_adjacency(7, edges), _mask(7, range(4)))
        for cands in ([0], [0, 1, 2, 3], [4]):
            with pytest.raises(DisconnectedGraphError):
                h.cheapest(cands)


def _counted_rows(monkeypatch):
    calls = []
    real = metric_module.bfs_hop_row

    def counted(adj, source, clique=None):
        calls.append(source)
        return real(adj, source, clique=clique)

    monkeypatch.setattr(metric_module, "bfs_hop_row", counted)
    return calls


def test_cheapest_runs_one_bfs_plus_one_row_per_deeper_vertex(monkeypatch):
    calls = _counted_rows(monkeypatch)
    # every outside vertex one hop from the clique, and all four clique
    # vertices tie at cost 10, so none can be skipped unrowed
    near = HopMetric(_adjacency(8, [(0, 4), (1, 5), (2, 6), (3, 7)]), _mask(8, range(4)))
    assert near.cheapest(range(4)) == (0, 10)
    assert len(calls) == 1 and near._rows == {}
    # 5 and 6 lie deeper: one row each, cached for the next call
    calls.clear()
    deep = HopMetric(_adjacency(8, _DEEP_EDGES), _mask(8, range(4)))
    assert deep.cheapest(range(4)) == (0, 11)
    assert len(calls) == 3 and sorted(deep._rows) == [5, 6]
    calls.clear()
    assert deep.cheapest(range(4)) == (0, 11)
    assert len(calls) == 1


def test_cheapest_in_finished_games_reads_no_row_of_a_near_vertex(monkeypatch):
    for n, q, algo in ((64, 64, "exact"), (64, 256, "random"), (256, 256, "pivot")):
        cert, _ = play_adversary_game(n, q, 4, make_player(algo, budget=q, seed=1), seed=1, metric_axioms_cap=0)
        clique = cert.final_metric.clique
        hops = bfs_hop_row(cert.perm, np.flatnonzero(clique))
        deep = int(np.count_nonzero(hops > 1))
        good = sorted(set(range(n)) - set(cert.bad))
        assert clique[good].all(), (n, q, algo)  # every good vertex is in the clique
        calls = _counted_rows(monkeypatch)
        assert HopMetric(cert.perm, clique).cheapest(good) == cert.best_good, (n, q, algo)
        assert np.count_nonzero(~clique) and len(calls) == 1 + deep, (n, q, algo)
        monkeypatch.undo()


def _materialised(adj, clique):
    """The same graph with the clique written out as edges, and no mask."""
    full = adj | (clique[:, None] & clique[None, :])
    np.fill_diagonal(full, False)
    return HopMetric(full, np.zeros(len(adj), dtype=bool))


def _assert_same_hop_metric(adj, clique, tag):
    n = len(adj)
    got, want = HopMetric(adj, clique), _materialised(adj, clique)
    for a in range(n):
        assert got.row(a).tolist() == want.row(a).tolist(), (tag, a)
        assert got.cost_of(a) == want.cost_of(a), (tag, a)
    # one-pair batches and cheapest on fresh metrics, so no cached row helps them
    got, want = HopMetric(adj, clique), _materialised(adj, clique)
    for a in range(n):
        for b in range(n):
            assert _single(got.distances([a], [b])) == _single(want.distances([a], [b])), (tag, a, b)
    rng = np.random.default_rng(n)
    candidate_lists = [range(n), [v for v in range(n) if clique[v]], [v for v in range(n) if not clique[v]]]
    candidate_lists += [sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)) for _ in range(4)]
    for cands in candidate_lists:
        if len(cands):
            fresh = HopMetric(adj, clique)
            assert fresh.cheapest(cands) == _materialised(adj, clique).cheapest(cands), (tag, list(cands))
    assert HopMetric(adj, clique).to_table(cap=n) == want.to_table(cap=n), tag


def test_hop_metric_clique_matches_materialised_graph():
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(2, 30))
        adj = _random_connected_adjacency(rng, n, int(rng.integers(0, n)))
        masks = {
            "empty": np.zeros(n, dtype=bool),
            "full": np.ones(n, dtype=bool),
            "random": rng.random(n) < rng.uniform(0.1, 0.9),
        }
        for name, clique in masks.items():
            _assert_same_hop_metric(adj, clique, (trial, name))


def test_hop_metric_clique_matches_materialised_graph_in_finished_games():
    pruned = 0
    for n, q, algo, seed in ((32, 8, "exact", 4), (32, 48, "random", 1), (48, 24, "pivot", 2), (64, 96, "random", 3)):
        cert, _ = play_adversary_game(n, q, 4, make_player(algo, budget=q, seed=seed), seed=seed, metric_axioms_cap=0)
        pruned += int(np.count_nonzero(~cert.final_metric.clique))
        _assert_same_hop_metric(cert.perm, cert.final_metric.clique, (n, q, algo))
    assert pruned >= 8


def _stacked_rows(adj, clique):
    """The table as it was built before the all-sources pass: one BFS row per point."""
    return np.vstack([bfs_hop_row(adj, a, clique=clique) for a in range(len(adj))])


def _assert_table_is_the_stacked_rows(adj, clique, tag) -> bool:
    """Check the table pass against the stacked rows; True iff the graph is disconnected."""
    want = _stacked_rows(adj, clique)
    cut = (want < 0).any(axis=1)
    if cut.any():
        # the row loop raised at the first row holding a -1
        with pytest.raises(DisconnectedGraphError, match=f"^vertex {int(cut.argmax())} cannot reach the whole graph$"):
            HopMetric(adj, clique).to_table(cap=len(adj))
        return True
    table = HopMetric(adj, clique).to_table(cap=len(adj))
    assert table.units.dtype == np.int64 and np.array_equal(table.units, want), tag
    assert not table.has_eps(), tag
    return False


def test_table_pass_equals_the_stacked_rows():
    rng = np.random.default_rng(30)
    cut = 0
    for n in list(range(1, 41)) + [64, 100, 137, 200]:
        for trial in range(3):
            if trial == 2:
                adj = _random_symmetric(rng, n)  # often disconnected
            else:
                adj = _random_connected_adjacency(rng, n, int(rng.integers(0, 2 * n)))
            masks = {
                "empty": np.zeros(n, dtype=bool),
                "full": np.ones(n, dtype=bool),
                "partial": rng.random(n) < rng.uniform(0.1, 0.9),
                "one": np.arange(n) == rng.integers(n),
            }
            for name, clique in masks.items():
                cut += _assert_table_is_the_stacked_rows(adj, clique, (n, trial, name))
    assert cut >= 20
    # n = 1 and every graph on two points
    for n, edge in ((1, False), (2, False), (2, True)):
        adj = np.zeros((n, n), dtype=bool)
        adj[0, n - 1] = adj[n - 1, 0] = edge
        for bits in range(2**n):
            clique = np.array([(bits >> v) & 1 for v in range(n)], dtype=bool)
            _assert_table_is_the_stacked_rows(adj, clique, (n, edge, bits))


@pytest.mark.parametrize("n", [24, 64, 256, 512])
def test_table_pass_equals_the_stacked_rows_in_finished_games(n):
    for algo in ("exact", "pivot", "random"):
        cert, _ = play_adversary_game(n, n, 4, make_player(algo, budget=n, seed=n), seed=n, metric_axioms_cap=0)
        assert 0 < np.count_nonzero(~cert.final_metric.clique) < n  # a partial clique
        _assert_table_is_the_stacked_rows(cert.perm, cert.final_metric.clique, (n, algo))


def test_table_pass_runs_no_row_bfs(monkeypatch):
    cert, _ = play_adversary_game(256, 256, 4, make_player("exact", 256, 0), seed=0, metric_axioms_cap=0)
    want = _stacked_rows(cert.perm, cert.final_metric.clique)
    calls = []
    real = metric_module.bfs_hop_row
    monkeypatch.setattr(metric_module, "bfs_hop_row", lambda adj, s, clique=None: calls.append(s) or real(adj, s, clique=clique))
    fresh = HopMetric(cert.perm, cert.final_metric.clique)
    assert np.array_equal(fresh.to_table(256).units, want)
    assert calls == []
    fresh.row(3)  # the single-row path still runs the row BFS
    assert calls == [3]


def test_line_metric():
    line = LineMetric(100)
    assert _single(line.distances([3], [77])) == ExactDistance(74)
    assert _single(line.distances([5], [5])) == ZERO


def test_metric_file_roundtrip(tmp_path, p4):
    path = str(tmp_path / "m.txt")
    write_metric_file(path, p4)
    again = read_metric_file(path)
    assert again == p4
    # the bytes of the entry-by-entry writer this one replaced
    lines = [str(p4.n)] + [" ".join(str(int(p4.units[i, j])) for j in range(i + 1)) for i in range(p4.n)]
    with open(path, "rb") as fh:
        assert fh.read() == ("\n".join(lines) + "\n").encode()


# the written file's bytes -> a plain file holding the same table
PLAIN_LAYOUTS = {
    "as-written": lambda text: text,
    "crlf": lambda text: text.replace(b"\n", b"\r\n"),
    "lone-cr": lambda text: text.replace(b"\n", b"\r"),
    "tabs": lambda text: text.replace(b" ", b"\t"),
    "blank-lines": lambda text: b"\n \t\r\n" + text.replace(b"\n", b"\n\n\t \n"),
    "no-final-newline": lambda text: text.rstrip(b"\n"),
}


@pytest.mark.parametrize("layout", sorted(PLAIN_LAYOUTS))
@pytest.mark.parametrize("kind", ["grid-400", "18-digit-token"])
def test_plain_metric_file_skips_the_walk(tmp_path, monkeypatch, kind, layout):
    """A plain file, whatever its line ends and blanks, is read by the one-pass reader alone."""
    path = tmp_path / "m.txt"
    if kind == "grid-400":
        table = generate_instance("grid", 400, 0)
        assert 400 * 401 // 2 > fileio._CHUNK  # Horner's rule runs over more than one chunk
    else:
        big = 10**18 - 1  # within sum_bound(3)
        table = MetricTable(np.array([[0, big, 7], [big, 0, big], [7, big, 0]]))
    write_metric_file(str(path), table)
    path.write_bytes(PLAIN_LAYOUTS[layout](path.read_bytes()))

    def walk(path):
        raise AssertionError("the line-by-line walk read a plain file")

    monkeypatch.setattr(fileio, "_read_metric_walk", walk)
    assert read_metric_file(str(path)) == table


def test_metric_file_checks_rows_before_sizing_by_n(tmp_path):
    """A header n is trusted for nothing until the row count matches it."""
    path = str(tmp_path / "m.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("1000000000000\n0\n1 0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            read_metric_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{path}: expected 1000000000000 rows, found 2"
    assert peak < 2**20


def test_metric_file_rejects_eps(tmp_path):
    units = np.array([[0, 1], [1, 0]], dtype=np.int64)
    eps = np.array([[0, 1], [1, 0]], dtype=np.int64)
    with pytest.raises(ValueError):
        write_metric_file(str(tmp_path / "m.txt"), MetricTable(units, eps))


def test_metric_json_roundtrip_keeps_eps(tmp_path):
    units = np.array([[0, 1], [1, 0]], dtype=np.int64)
    eps = np.array([[0, 2], [2, 0]], dtype=np.int64)
    t = MetricTable(units, eps)
    path = str(tmp_path / "m.json")
    write_metric_json(path, t)
    assert read_metric_json(path) == t


@pytest.mark.parametrize(
    "blob, message",
    [
        ({"n": 2}, 'expected an object with "n" and "dist"'),
        ({"n": 2, "dist": [[1, 2], [3, 4]]}, 'entry (0, 0) should be {"units": u, "eps_count": e}, got 1'),
        ([1, 2], 'expected an object with "n" and "dist"'),
        ({"n": 2, "dist": [[{"units": 0, "eps_count": 0}, {"units": 1.5, "eps_count": 0}],
                           [{"units": 1, "eps_count": 0}, {"units": 0, "eps_count": 0}]]},
         "units of entry (0, 1) must be a 64-bit integer, got 1.5"),
        ({"n": 2, "dist": [[{"units": 0, "eps_count": 0}, {"units": 0, "eps_count": 2**63}],
                           [{"units": 1, "eps_count": 0}, {"units": 0, "eps_count": 0}]]},
         f"eps_count of entry (0, 1) must be a 64-bit integer, got {2**63}"),
        ('{"n": 1, "dist": ' + "[" * 3000 + "]" * 3000 + "}", "JSON nested too deeply to read"),
        ({"n": 2, "dist": [[{"units": 0, "eps_count": 0}, {"units": 1, "eps_count": 2**62}],
                           [{"units": 1, "eps_count": 0}, {"units": -(2**62), "eps_count": 0}]]},
         f"eps_count of entry (0, 1) must lie within +-{(2**63 - 1) // 2} = (2**63 - 1) // 2 "
         f"so that exact sums fit in 64 bits, got {2**62}"),
        ({"n": -1, "dist": []}, "n must be nonnegative, got -1"),
    ],
    ids=["missing-dist", "bare-numbers", "not-an-object", "fractional-entry", "entry-past-int64",
         "nested-too-deep", "eps-sum-could-wrap", "negative-n"],
)
def test_metric_json_rejects_malformed(tmp_path, blob, message):
    path = str(tmp_path / "bad.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(blob if isinstance(blob, str) else json.dumps(blob))
    with pytest.raises(ValueError) as info:
        read_metric_json(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "reader, lines, message",
    [
        (read_metric_file, ["2", "0", "99999999999999999999 0"],
         "entry (1, 0) must be a 64-bit integer, got 99999999999999999999"),
        (read_metric_file, ["2", "0", f"1 {-(2**63) - 1}"],
         f"entry (1, 1) must be a 64-bit integer, got {-(2**63) - 1}"),
        (read_metric_file, ["2", "0", "1.5 0"], "entry (1, 0) must be a 64-bit integer, got '1.5'"),
        (read_metric_file, ["two", "0", "1 0"], "n must be a 64-bit integer, got 'two'"),
        (read_metric_file, ["3", "0", "1 0"], "expected 3 rows, found 2"),
        (read_metric_file, ["2 5 junk", "0", "1 0"], "line 1 should hold n alone, found 3 tokens"),
        (read_metric_file, ["2", "0", f"{-(2**63)} 0"],
         f"entry (1, 0) must lie within +-{(2**63 - 1) // 2} = (2**63 - 1) // 2 "
         f"so that exact sums fit in 64 bits, got {-(2**63)}"),
        (read_metric_file, ["-1"], "n must be nonnegative, got -1"),
    ],
    ids=["entry-past-int64", "entry-below-int64", "fractional-entry", "non-integer-n", "missing-row",
         "extra-header-tokens", "entry-sum-could-wrap", "negative-n"],
)
def test_metric_text_rejects_malformed(tmp_path, reader, lines, message):
    path = str(tmp_path / "bad.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        reader(path)
    assert str(info.value) == f"{path}: {message}"


def test_load_metric_any_dispatch(tmp_path, p4):
    t_path = str(tmp_path / "m.txt")
    j_path = str(tmp_path / "m.json")
    write_metric_file(t_path, p4)
    write_metric_json(j_path, p4)
    assert load_metric_any(t_path) == p4
    assert load_metric_any(j_path) == p4


def test_edge_list_roundtrip(tmp_path):
    path = str(tmp_path / "g.txt")
    write_edge_list(path, P4_EDGES, header="a path")
    with open(path, encoding="utf-8") as fh:
        assert fh.readline() == "# a path\n"
    # the library writes edge lists and has no reader: numpy parses the 1-based pairs
    edges = np.loadtxt(path, dtype=np.int64, ndmin=2) - 1
    assert edges.tolist() == [list(e) for e in P4_EDGES]
