import math

import numpy as np
import pytest

from medianlab.distances import ExactDistance
from medianlab.harness import INSTANCE_KINDS, generate_instance


class LineMetric:
    """The path metric d(i, j) = |i - j| on n points, never materialized."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one point")
        self.n = n

    def distance(self, a, b):
        return ExactDistance(abs(a - b))


def median_cost(oracle, p, S):
    """Total distance from p to every point of S, one query per point.

    The query for d(p, p) is issued and charged like any other when p is
    a member of S.  The points are asked as one batch, in sorted order.
    """
    ys = np.array(sorted(set(S)), dtype=np.int64)
    units, eps = oracle.query_many(np.full(len(ys), p, dtype=np.int64), ys)
    return ExactDistance(int(units.sum()), int(eps.sum()))


def corpus(sizes, kinds=INSTANCE_KINDS, seeds=(0,)):
    """Deterministic list of (kind, n, seed, table) tuples."""
    out = []
    for kind in kinds:
        for n in sizes:
            for seed in seeds:
                out.append((kind, n, seed, generate_instance(kind, n, seed)))
    return out


def subset_size_grid(n):
    """The four subset sizes every transfer-style check sweeps."""
    return sorted({1, math.isqrt(n - 1) + 1 if n > 1 else 1, -(-n // 2), n})


@pytest.fixture(scope="session")
def small_corpus():
    return corpus(sizes=(4, 5, 7, 9, 12, 16), seeds=(0, 1))
