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
``query_bound(s)``, and ``solve(oracle, S) -> SolverResult``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .distances import ZERO, ExactDistance
from .metric import RestrictedOracle, exact_median

__all__ = [
    "SolverResult",
    "subset_schedule",
    "subset_size",
    "transfer_bound",
    "ExactInner",
    "PivotInner",
    "SamplingInner",
    "solve_on_subset",
    "restrict_and_solve",
    "sampling_baseline",
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
        pts = sorted(set(S))
        before = oracle.queries_made
        if len(pts) == 1:
            return SolverResult(pts[0], 0, None)
        p1, p2 = pts[0], pts[1]
        row1 = {y: oracle.query(p1, y) for y in pts}
        row2 = {y: oracle.query(p2, y) for y in pts}
        cost = {
            p1: sum(row1.values(), ZERO),
            p2: sum(row2.values(), ZERO),
        }
        others = pts[2:]
        if others:
            challenger = min(others, key=lambda y: (row1[y] + row2[y], y))
            cost[challenger] = sum((oracle.query(challenger, y) for y in pts), ZERO)
        output = min(sorted(cost), key=lambda p: (cost[p], p))
        return SolverResult(output, oracle.queries_made - before, None)


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
        """
        pts = sorted(set(S))
        k = self.sample_size if self.sample_size is not None else max(1, math.isqrt(len(pts)))
        if k < 1:
            raise ValueError("sample size must be positive")
        before = oracle.queries_made
        if k >= len(pts):
            point, _ = exact_median(oracle, pts)
            return SolverResult(point, oracle.queries_made - before, Fraction(1))
        rng = random.Random(self.rng_seed)
        candidates = sorted(rng.sample(pts, k))
        evaluation = sorted(rng.sample(pts, k))
        score: dict[int, ExactDistance] = {}
        for c in candidates:
            score[c] = sum((oracle.query(c, e) for e in evaluation), ZERO)
        output = min(candidates, key=lambda c: (score[c], c))
        return SolverResult(output, oracle.queries_made - before, None)


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


def sampling_baseline(oracle, n: int, sample_size: int, rng_seed: int) -> SolverResult:
    """Estimate a median from a seeded sample of candidates and evaluators.

    Each of sample_size candidate points is scored against a seeded
    evaluation sample of the same size.  With sample_size >= n the
    routine degenerates to the exact brute-force median.
    """
    return SamplingInner(rng_seed, sample_size).solve(oracle, range(n))


def make_inner(name: str, rng_seed: int = 0, sample_size: int | None = None):
    if name == "exact":
        return ExactInner()
    if name == "pivot":
        return PivotInner()
    if name == "sampling":
        return SamplingInner(rng_seed, sample_size)
    raise ValueError(f"unknown inner routine {name!r}")
