import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medianlab.distances import EPS, ONE, ZERO, ExactDistance
from medianlab.fileio import (
    load_metric_any,
    read_edge_list,
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
    LineMetric,
    MetricTable,
    QueryOutsideSubsetError,
    RestrictedOracle,
    bfs_hop_row,
    brute_force_cost,
    brute_force_median,
    exact_median,
    graph_metric,
    is_metric,
    median_cost,
    validate_metric,
    Violation,
)
from medianlab.harness import ConstantBacking, generate_instance

from conftest import subset_size_grid

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


def test_bfs_hop_row_frozen():
    adj = np.zeros((4, 4), dtype=bool)
    for u, v in P4_EDGES:
        adj[u, v] = adj[v, u] = True
    assert bfs_hop_row(adj, 0).tolist() == [0, 1, 2, 3]
    adj2 = np.zeros((3, 3), dtype=bool)
    adj2[0, 1] = adj2[1, 0] = True
    assert bfs_hop_row(adj2, 0).tolist() == [0, 1, -1]


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
    # into one generator; kept as the reference for order and verdicts
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


@settings(max_examples=400, deadline=None)
@given(small_tables())
def test_axiom_checker_matches_reference(table):
    assert validate_metric(table) == _reference_validate_metric(table)
    assert is_metric(table) == _reference_is_metric(table)


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
    h = HopMetric(adj)
    assert h.distance(0, 8) == ExactDistance(8)
    assert h.cost_of(4) == sum(abs(4 - j) for j in range(9))
    assert (h.to_table().units == table.units).all()


def test_hop_metric_cheapest_matches_argmin():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(4, 24))
        adj = np.zeros((n, n), dtype=bool)
        for i in range(1, n):  # random tree plus chords
            j = int(rng.integers(0, i))
            adj[i, j] = adj[j, i] = True
        for _ in range(n // 2):
            a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
            if a != b:
                adj[a, b] = adj[b, a] = True
        h = HopMetric(adj)
        costs = [h.cost_of(v) for v in range(n)]
        expect = min(range(n), key=lambda v: (costs[v], v))
        v, c = h.cheapest(range(n))
        assert (v, c) == (expect, costs[expect])
        # and on a strict subset of candidates
        cands = list(range(0, n, 2))
        expect_sub = min(cands, key=lambda v: (costs[v], v))
        assert h.cheapest(cands) == (expect_sub, costs[expect_sub])


def test_line_metric():
    line = LineMetric(100)
    assert line.distance(3, 77) == ExactDistance(74)
    assert line.distance(5, 5) == ZERO


def test_metric_file_roundtrip(tmp_path, p4):
    path = str(tmp_path / "m.txt")
    write_metric_file(path, p4)
    again = read_metric_file(path)
    assert again == p4


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
    ],
    ids=["missing-dist", "bare-numbers", "not-an-object", "fractional-entry", "entry-past-int64",
         "nested-too-deep"],
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
        (read_edge_list, ["# a path", "1 2", "2 x"], "vertex 2 of line 3 must be a 64-bit integer, got 'x'"),
        (read_edge_list, ["1 2", f"{2**63} 1"], f"vertex 1 of line 2 must be a 64-bit integer, got {2**63}"),
    ],
    ids=["entry-past-int64", "entry-below-int64", "fractional-entry", "non-integer-n", "missing-row",
         "extra-header-tokens", "edge-non-integer", "edge-past-int64"],
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
    n, edges = read_edge_list(path)
    assert n == 4
    assert edges == sorted(P4_EDGES)
