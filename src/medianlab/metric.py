"""Finite metric spaces, distance oracles, and brute-force medians.

Points are plain 0-based ints.  The query protocol has two sides:

* a *backing* has an ``n`` attribute and a
  ``distance(a, b) -> ExactDistance`` method;
* an *oracle* has ``n``, a ``queries_made`` count and a
  ``query(a, b) -> ExactDistance`` method, and is all an algorithm under
  test ever sees.

The value of eps on either is ``distances.eps_value(n)``.  Three concrete
backings are provided:

* :class:`MetricTable`, a dense exact table held as two numpy arrays
  (integer hop units and eps counts),
* :class:`HopMetric`, shortest-path distances over a fixed undirected
  graph, computed lazily one BFS row at a time,
* :class:`LineMetric`, ``d(i, j) = |i - j|``, for budget measurements on
  spaces far too large to materialize.

Every algorithm under test talks to a backing through
:class:`CountingOracle`, which charges one query per ``query()`` call,
repeats included, and can keep a transcript for replay checks.  A
transcript is a ``list[TranscriptEntry]`` of ``(a, b, answer)`` tuples
in query order; an entry's round is its list position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .distances import ZERO, ExactDistance, total

__all__ = [
    "DisconnectedGraphError",
    "QueryOutsideSubsetError",
    "Violation",
    "MetricTable",
    "HopMetric",
    "LineMetric",
    "TranscriptEntry",
    "replay_verify",
    "CountingOracle",
    "RestrictedOracle",
    "validate_metric",
    "is_metric",
    "graph_metric",
    "median_cost",
    "exact_median",
    "brute_force_cost",
    "brute_force_median",
    "bfs_hop_row",
]

PointId = int


class DisconnectedGraphError(ValueError):
    """Raised when a graph that must be connected is not."""


class QueryOutsideSubsetError(ValueError):
    """Raised when a restricted solver touches a pair outside its subset."""


@dataclass(frozen=True)
class Violation:
    """One violated metric axiom instance with its witnessing points."""

    kind: str  # "identity" | "positivity" | "symmetry" | "triangle"
    points: tuple


def bfs_hop_row(adjacency: np.ndarray, source, target: int | None = None) -> np.ndarray:
    """Hop distances from source over a boolean adjacency matrix.

    ``source`` is one vertex or a list of vertices; every source sits at
    level 0.  Returns an int64 vector with -1 for unreachable vertices.
    With a ``target``, the walk stops after the level that reaches it,
    so vertices farther out than the target also read -1.  The level
    expansion is a vectorized row-gather, which is what makes the nearly
    complete graphs used by the adversary cheap to probe.
    """
    dist = np.full(adjacency.shape[0], -1, dtype=np.int64)
    dist[source] = 0
    frontier = dist == 0
    level = 0
    while frontier.any() and (target is None or dist[target] < 0):
        level += 1
        frontier = adjacency[frontier].any(axis=0) & (dist < 0)
        dist[frontier] = level
    return dist


class MetricTable:
    """Dense exact distance table on n points."""

    def __init__(self, units: np.ndarray, eps: np.ndarray | None = None):
        units = np.asarray(units, dtype=np.int64)
        if units.ndim != 2 or units.shape[0] != units.shape[1]:
            raise ValueError("distance table must be square")
        self.units = units
        if eps is None:
            eps = np.zeros_like(units)
        else:
            eps = np.asarray(eps, dtype=np.int64)
            if eps.shape != units.shape:
                raise ValueError("eps table must match the units table")
        self.eps = eps
        self.n = units.shape[0]

    def distance(self, a: PointId, b: PointId) -> ExactDistance:
        return ExactDistance(int(self.units[a, b]), int(self.eps[a, b]))

    def has_eps(self) -> bool:
        return bool(self.eps.any())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricTable):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.units, other.units)
            and np.array_equal(self.eps, other.eps)
        )

    def __repr__(self) -> str:
        tag = "+eps" if self.has_eps() else ""
        return f"MetricTable(n={self.n}{tag})"


class HopMetric:
    """Shortest-path hop metric over a frozen undirected graph.

    Rows are computed on demand and cached, so callers that only need a
    handful of sources (replay checks, cost lookups) never pay for the
    full all-pairs matrix.
    """

    def __init__(self, adjacency: np.ndarray):
        adjacency = np.asarray(adjacency, dtype=bool)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise ValueError("adjacency must be square")
        self._adj = adjacency.copy()
        np.fill_diagonal(self._adj, False)
        self.n = adjacency.shape[0]
        self._rows: dict[int, np.ndarray] = {}

    @property
    def adjacency(self) -> np.ndarray:
        return self._adj

    def row(self, a: PointId) -> np.ndarray:
        cached = self._rows.get(a)
        if cached is None:
            cached = bfs_hop_row(self._adj, a)
            if (cached < 0).any():
                raise DisconnectedGraphError(f"vertex {a} cannot reach the whole graph")
            self._rows[a] = cached
        return cached

    def distance(self, a: PointId, b: PointId) -> ExactDistance:
        return ExactDistance(int(self.row(a)[b]))

    def cost_of(self, a: PointId) -> int:
        return int(self.row(a).sum())

    def cheapest(self, candidates: Sequence[PointId]) -> tuple[PointId, int]:
        """Minimum-total-distance candidate, ties to the lowest index.

        Uses the degree bound cost >= 2*(n-1) - deg to skip BFS runs for
        candidates that cannot win.
        """
        cands = sorted(set(int(c) for c in candidates))
        if not cands:
            raise ValueError("no candidates")
        if self.n == 1:
            return cands[0], 0
        degs = self._adj[cands].sum(axis=1)
        lower = 2 * (self.n - 1) - degs
        order = sorted(range(len(cands)), key=lambda i: (int(lower[i]), cands[i]))
        best_v = cands[order[0]]
        best_cost = self.cost_of(best_v)
        for i in order[1:]:
            if int(lower[i]) > best_cost:
                break
            v = cands[i]
            c = self.cost_of(v)
            if (c, v) < (best_cost, best_v):
                best_cost, best_v = c, v
        return best_v, best_cost

    def to_table(self, cap: int = 4096) -> MetricTable:
        if self.n > cap:
            raise ValueError(f"refusing to materialize {self.n}x{self.n} table (cap {cap})")
        units = np.vstack([self.row(a) for a in range(self.n)])
        return MetricTable(units)


class LineMetric:
    """The path metric d(i, j) = |i - j| on n points, never materialized."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one point")
        self.n = n

    def distance(self, a: PointId, b: PointId) -> ExactDistance:
        return ExactDistance(abs(a - b))


class TranscriptEntry(NamedTuple):
    a: PointId
    b: PointId
    answer: ExactDistance


def replay_verify(transcript, metric) -> bool:
    """True iff every recorded answer matches the metric it claims to describe."""
    return all(metric.distance(e.a, e.b) == e.answer for e in transcript)


class CountingOracle:
    """Charges one query per distance inspection, repeats included."""

    def __init__(self, backing, record_transcript: bool = True):
        self.backing = backing
        self.queries_made = 0
        self.transcript: list[TranscriptEntry] | None = [] if record_transcript else None

    @property
    def n(self) -> int:
        return self.backing.n

    def query(self, a: PointId, b: PointId) -> ExactDistance:
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise IndexError(f"query ({a}, {b}) outside space of size {self.n}")
        answer = self.backing.distance(a, b)
        self.queries_made += 1
        if self.transcript is not None:
            self.transcript.append(TranscriptEntry(a, b, answer))
        return answer


class RestrictedOracle:
    """Guard that confines queries to a fixed subset of the space."""

    def __init__(self, oracle, allowed: Iterable[PointId]):
        self._oracle = oracle
        self.allowed = frozenset(int(p) for p in allowed)

    @property
    def n(self) -> int:
        return self._oracle.n

    @property
    def queries_made(self) -> int:
        return self._oracle.queries_made

    def query(self, a: PointId, b: PointId) -> ExactDistance:
        if a not in self.allowed or b not in self.allowed:
            raise QueryOutsideSubsetError(f"query ({a}, {b}) leaves the allowed subset")
        return self._oracle.query(a, b)


def _argwhere_if_any(mask: np.ndarray):
    # the .any() scan is cheap; argwhere only runs on a hit
    return np.argwhere(mask) if mask.any() else ()


def _violations(table: MetricTable) -> Iterator[Violation]:
    """Yield every violated axiom instance: identity, positivity, symmetry, triangle."""
    u, e = table.units, table.eps
    n = table.n

    for x in np.nonzero((np.diagonal(u) != 0) | (np.diagonal(e) != 0))[0]:
        yield Violation("identity", (int(x),))

    off = ~np.eye(n, dtype=bool)
    for x, y in _argwhere_if_any((((u == 0) & (e == 0)) | (u < 0) | (e < 0)) & off):
        if x < y or u[x, y] < 0 or e[x, y] < 0:
            yield Violation("positivity", (int(x), int(y)))

    for x, y in _argwhere_if_any((u != u.T) | (e != e.T)):
        if x < y:
            yield Violation("symmetry", (int(x), int(y)))

    for y in range(n):
        su = u[:, y, None] + u[None, y, :]
        se = e[:, y, None] + e[None, y, :]
        for x, z in _argwhere_if_any((u > su) | ((u == su) & (e > se))):
            if x != y and z != y and x != z:
                yield Violation("triangle", (int(x), int(y), int(z)))


def validate_metric(table: MetricTable) -> list[Violation]:
    """Check all four metric axioms exactly and return every violation.

    Comparisons are lexicographic on (units, eps_count), which matches
    the rational order under the eps regime the glued constructions
    assert.  Returns an empty list iff the table is a metric.
    """
    return list(_violations(table))


def is_metric(table: MetricTable) -> bool:
    """Boolean form of :func:`validate_metric`, stopping at the first violation."""
    return next(_violations(table), None) is None


def graph_metric(n: int, edges: Iterable[tuple[int, int]]) -> MetricTable:
    """All-pairs hop distances of a connected undirected graph.

    Raises DisconnectedGraphError when some pair has no path.
    """
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside vertex range")
        if u == v:
            raise ValueError("self loops are not allowed")
        adj[u, v] = True
        adj[v, u] = True
    return HopMetric(adj).to_table(cap=n)


def median_cost(oracle, p: PointId, S: Iterable[PointId]) -> ExactDistance:
    """Total distance from p to every point of S, one query per point.

    The query for d(p, p) is issued and charged like any other when p is
    a member of S.
    """
    return total(oracle.query(p, y) for y in sorted(set(S)))


def exact_median(oracle, S: Iterable[PointId]) -> tuple[PointId, ExactDistance]:
    """Brute-force 1-median of S through the oracle.

    Queries each unordered pair of distinct points once (symmetry is
    cached within this call only), for |S|*(|S|-1)/2 queries.  Ties go
    to the lowest point index.
    """
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


def _lex_argmin(units: np.ndarray, eps: np.ndarray, points: np.ndarray) -> int:
    order = np.lexsort((points, eps, units))
    return int(order[0])


def brute_force_cost(table: MetricTable, p: PointId, S: Sequence[PointId] | None = None) -> ExactDistance:
    """Oracle-free total distance from p to S (default: the whole space)."""
    if S is None:
        return ExactDistance(int(table.units[p].sum()), int(table.eps[p].sum()))
    idx = np.asarray(sorted(set(S)), dtype=np.int64)
    return ExactDistance(int(table.units[p, idx].sum()), int(table.eps[p, idx].sum()))


def brute_force_median(table: MetricTable, S: Sequence[PointId] | None = None) -> tuple[PointId, ExactDistance]:
    """Oracle-free exact 1-median of S within S (default: whole space).

    This is the independent reference every solver is checked against;
    it reads the table directly and never touches the query-counting
    layer.
    """
    if S is None:
        idx = np.arange(table.n, dtype=np.int64)
    else:
        idx = np.asarray(sorted(set(S)), dtype=np.int64)
        if idx.size == 0:
            raise ValueError("cannot take a median of the empty set")
    cu = table.units[np.ix_(idx, idx)].sum(axis=1)
    ce = table.eps[np.ix_(idx, idx)].sum(axis=1)
    k = _lex_argmin(cu, ce, idx)
    return int(idx[k]), ExactDistance(int(cu[k]), int(ce[k]))
