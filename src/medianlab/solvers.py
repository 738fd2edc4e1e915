"""Budgeted 1-median solvers built on subset restriction.

The workhorse is two-stage: fix a prefix subset S of the space whose
size shrinks as the query budget grows, solve the 1-median problem
inside S with an inner routine, and return that point as an answer for
the whole space.  If the inner routine is beta-approximate on S, the
returned point is (4*beta*n/|S| + 1)-approximate globally, and
:func:`transfer_bound` computes that guarantee exactly.

Inner routines implement a small informal interface: ``name``,
``schedule(S)`` (the full query list when it is fixed before any answer
arrives, that is, when the routine is nonadaptive, and None otherwise),
``query_bound(s)``, and ``solve(oracle, S) -> SolverResult``.  An inner
asks its schedule in batches through ``oracle.query_many``: the exact
routine blocks of whole rows of its pair triangle, about 4096 pairs a
block, the pivot routine its two pivot rows and then the challenger's
row, the sampling routine its whole k x k block.
Batching changes neither the order of the pairs nor their count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .distances import ExactDistance
from .metric import RestrictedOracle, _lex_argmin, exact_median

__all__ = [
    "SolverResult",
    "subset_schedule",
    "subset_size",
    "transfer_bound",
    "cost_ratio",
    "ExactInner",
    "PivotInner",
    "SamplingInner",
    "solve_on_subset",
    "restrict_and_solve",
    "INNERS",
    "make_inner",
]


@dataclass(frozen=True)
class SolverResult:
    output: int
    queries_used: int
    claimed_beta: Fraction | None  # None means no approximation guarantee is claimed


def subset_size(n: int, f_of_n: int) -> int:
    """Size of the restriction subset for budget factor f: ceil(n / isqrt(f))."""
    if n < 1:
        raise ValueError("space must be nonempty")
    if f_of_n < 1:
        raise ValueError("budget factor must be at least 1")
    root = math.isqrt(f_of_n)
    return max(1, -(-n // root))


def subset_schedule(n: int, m: int) -> list[int]:
    """The fixed subset used for restriction: the first m points."""
    if not (1 <= m <= n):
        raise ValueError(f"subset size {m} out of range for n = {n}")
    return list(range(m))


def transfer_bound(beta: Fraction | int, n: int, s: int) -> Fraction:
    """Global guarantee bought by a beta-approximate median of an s-subset.

    A beta-approximate 1-median of any s-point subset is, as a point of
    the full n-point space, within a factor 4*beta*n/s + 1 of the true
    1-median cost.
    """
    b = Fraction(beta)
    if b < 1:
        raise ValueError("approximation factors are at least 1")
    if not (1 <= s <= n):
        raise ValueError(f"subset size {s} out of range for n = {n}")
    return Fraction(4 * b * n, s) + 1


def cost_ratio(output: ExactDistance, opt: ExactDistance, eps: Fraction) -> Fraction:
    """Exact ratio of an output's cost to the optimum's; 0/0 counts as 1.

    A positive cost against an optimum of 0 means no metric could have
    produced the two costs, so it raises ValueError.
    """
    num, den = output.to_fraction(eps), opt.to_fraction(eps)
    if den > 0:
        return num / den
    if num == 0:
        return Fraction(1)
    raise ValueError(f"output cost {output} against an optimum cost of 0: the table is not a metric")


class ExactInner:
    """Brute force on the subset: beta = 1, fully nonadaptive."""

    name = "exact"

    def query_bound(self, s: int) -> int:
        return s * (s - 1) // 2

    def schedule(self, S: Sequence[int]) -> list[tuple[int, int]]:
        pts = sorted(set(S))
        return [(p, q) for i, p in enumerate(pts) for q in pts[i + 1 :]]

    def solve(self, oracle, S: Sequence[int]) -> SolverResult:
        before = oracle.queries_made
        point, _ = exact_median(oracle, S)
        return SolverResult(point, oracle.queries_made - before, Fraction(1))


class PivotInner:
    """Two fixed pivot rows, then one exactly measured challenger.

    Phase one queries d(p1, y) and d(p2, y) for the two lowest-index
    points p1, p2 of S and every y in S.  The challenger c is the
    non-pivot y minimizing d(p1, y) + d(p2, y), ties to the lowest
    index; by the triangle inequality such a y sits on a near-geodesic
    between the pivots, which makes it a genuinely central third
    candidate (the pivots themselves always reach the unconstrained
    minimum d(p1, p2), so they are excluded).  Phase two measures c's
    subset cost exactly, and the output is whichever of p1, p2, c has
    the smallest measured cost.  At most 3|S| queries, comfortably
    inside the 5|S| budget.  Phase two's target depends on phase one's
    answers, so this inner is adaptive (two rounds).
    """

    name = "pivot"

    def query_bound(self, s: int) -> int:
        return 3 * s

    def schedule(self, S: Sequence[int]) -> None:
        return None

    def solve(self, oracle, S: Sequence[int]) -> SolverResult:
        pts = np.array(sorted(set(S)), dtype=np.int64)
        before = oracle.queries_made
        if len(pts) == 1:
            return SolverResult(int(pts[0]), 0, None)

        def row(p: int) -> tuple[np.ndarray, np.ndarray]:
            return oracle.query_many(np.full(len(pts), p), pts)

        u1, e1 = row(pts[0])
        u2, e2 = row(pts[1])
        costs = [(u1.sum(), e1.sum()), (u2.sum(), e2.sum())]
        candidates = [pts[0], pts[1]]
        if len(pts) > 2:
            k = 2 + _lex_argmin(u1[2:] + u2[2:], e1[2:] + e2[2:], pts[2:])
            uc, ec = row(pts[k])
            costs.append((uc.sum(), ec.sum()))
            candidates.append(pts[k])
        output = min(zip(costs, candidates))[1]
        return SolverResult(int(output), oracle.queries_made - before, None)


class SamplingInner:
    """Seeded Monte Carlo baseline wrapped as an inner routine."""

    name = "sampling"

    def __init__(self, rng_seed: int, sample_size: int | None = None):
        self.rng_seed = rng_seed
        self.sample_size = sample_size

    def query_bound(self, s: int) -> int:
        k = self.sample_size if self.sample_size is not None else max(1, math.isqrt(s))
        return s * (s - 1) // 2 if k >= s else k * k

    def schedule(self, S: Sequence[int]) -> None:
        return None

    def solve(self, oracle, S: Sequence[int]) -> SolverResult:
        """Score k seeded candidates against k seeded evaluators.

        With k >= |S| the routine degenerates to the exact median of S.
        A step-1 ``range`` is used as it is, already sorted and distinct,
        so a whole space of n points is never listed: ``random.sample``
        draws by index, the same points from the range as from its list.
        """
        pts = S if isinstance(S, range) and S.step == 1 else sorted(set(S))
        k = self.sample_size if self.sample_size is not None else max(1, math.isqrt(len(pts)))
        if k < 1:
            raise ValueError("sample size must be positive")
        before = oracle.queries_made
        if k >= len(pts):
            point, _ = exact_median(oracle, pts)
            return SolverResult(point, oracle.queries_made - before, Fraction(1))
        rng = random.Random(self.rng_seed)
        candidates = np.array(sorted(rng.sample(pts, k)), dtype=np.int64)
        evaluation = np.array(sorted(rng.sample(pts, k)), dtype=np.int64)
        units, eps = oracle.query_many(np.repeat(candidates, k), np.tile(evaluation, k))
        j = _lex_argmin(units.reshape(k, k).sum(axis=1), eps.reshape(k, k).sum(axis=1), candidates)
        return SolverResult(int(candidates[j]), oracle.queries_made - before, None)


def solve_on_subset(oracle, S: Sequence[int], inner) -> SolverResult:
    """Run an inner routine with queries guarded to S x S."""
    guard = RestrictedOracle(oracle, S)
    return inner.solve(guard, S)


def restrict_and_solve(oracle, n: int, f_of_n: int, inner) -> SolverResult:
    """Full pipeline: pick the prefix subset for budget factor f, solve inside it.

    Nonadaptive exactly when the inner routine is nonadaptive; the
    subset itself never depends on any answer.
    """
    s = subset_size(n, f_of_n)
    S = subset_schedule(n, s)
    return solve_on_subset(oracle, S, inner)


# name -> factory(rng_seed, sample_size); the CLI's --inner choices, in this order
INNERS = {
    "exact": lambda rng_seed, sample_size: ExactInner(),
    "pivot": lambda rng_seed, sample_size: PivotInner(),
    "sampling": SamplingInner,
}


def make_inner(name: str, rng_seed: int = 0, sample_size: int | None = None):
    if name not in INNERS:
        raise ValueError(f"unknown inner routine {name!r}")
    return INNERS[name](rng_seed, sample_size)
