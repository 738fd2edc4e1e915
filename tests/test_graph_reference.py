"""Edge-list graphs against the dense code that computed them before.

``graph_metric`` and the ``table`` generator take their all-pairs
tables from ``scipy.sparse.csgraph``.  The references here are the
earlier dense implementations, kept verbatim: a bool matrix filled edge
by edge and walked by one ``HopMetric.row`` BFS per row, and an O(n^3) Floyd
closure of the random weights.  Tables must be equal entry for entry
and in dtype, and bad edge lists must fail with the same error text.
"""

import random

import numpy as np
import pytest

from medianlab import harness
from medianlab.harness import INSTANCE_KINDS, generate_instance
from medianlab.metric import HopMetric, MetricTable, graph_metric

SIZES = list(range(1, 17)) + [24, 40, 256, 768]
SEEDS = (0, 1, 2)


def _dense_graph_metric(n, edges) -> MetricTable:
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside vertex range")
        if u == v:
            raise ValueError("self loops are not allowed")
        adj[u, v] = True
        adj[v, u] = True
    walk = HopMetric(adj, np.zeros(n, dtype=bool))
    return MetricTable(np.vstack([walk.row(a) for a in range(n)]))


def _floyd_table(n, rng) -> MetricTable:
    units = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            units[i, j] = units[j, i] = rng.randint(1, 9)
    for k in range(n):
        units = np.minimum(units, units[:, k][:, None] + units[k, :][None, :])
    np.fill_diagonal(units, 0)
    return MetricTable(units, np.zeros_like(units))


def _reference(kind, n, seed) -> MetricTable:
    if kind == "table":
        return _floyd_table(n, random.Random(seed))
    if kind == "random-graph":
        return _dense_graph_metric(n, harness._random_graph_edges(n, random.Random(seed)))
    edges = harness._star_path_edges(n) if kind == "star-path" else harness._grid_edges(n)
    return _dense_graph_metric(n, edges)


def _assert_same_table(got: MetricTable, want: MetricTable):
    for what in ("units", "eps"):
        a, b = getattr(got, what), getattr(want, what)
        assert a.dtype == b.dtype, what
        assert np.array_equal(a, b), what


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_instances_match_dense_reference(kind, n):
    want = None
    for seed in SEEDS:
        # star-path and grid ignore the seed, so their first reference serves every seed
        if want is None or kind in ("random-graph", "table"):
            want = _reference(kind, n, seed)
        _assert_same_table(generate_instance(kind, n, seed), want)


def _outcome(build, n, edges):
    try:
        return build(n, edges)
    except ValueError as exc:
        return exc


@pytest.mark.parametrize(
    "n, edges",
    [
        (4, [(0, 1), (1, 4)]),  # out of range
        (4, [(0, 1), (-1, 2)]),
        (4, [(0, 1), (2, 2)]),  # self loop
        (4, [(0, 9), (3, 3)]),  # mixed: the first bad edge decides
        (4, [(3, 3), (0, 9)]),
        (4, [(5, 5)]),  # an out-of-range loop is out of range
        (4, [(0, 1), (2, 3)]),  # disconnected
        (5, [(0, 1), (1, 2), (3, 4)]),
        (1, []),
        (3, [(0, 1), (1, 0), (0, 1), (2, 1)]),  # a repeated edge counts once
    ],
)
def test_graph_metric_edge_cases_match_dense_reference(n, edges):
    got, want = _outcome(graph_metric, n, edges), _outcome(_dense_graph_metric, n, edges)
    if isinstance(want, MetricTable):
        _assert_same_table(got, want)
    else:
        assert type(got) is type(want)
        assert str(got) == str(want)
