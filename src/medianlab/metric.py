"""Finite metric spaces, distance oracles, and brute-force medians.

Points are plain 0-based ints.  The query protocol has two sides, and
both speak in batches:

* a *backing* has an ``n`` attribute and one method,
  ``distances(a, b) -> (units, eps)``, which answers the pairs
  ``(a[k], b[k])`` of two equal-length int arrays as two int64 arrays.
  :class:`MetricTable`, :class:`HopMetric`, ``lowerbound``'s glued
  metric and ``harness.ConstantBacking`` are backings, and so is the
  adaptive adversary, which serves a batch in order as consecutive
  rounds, checks its anchor before and after a batch instead of after
  every round, and serves its padding as one batch;
* an *oracle* has ``n``, a ``queries_made`` count, a batch method
  ``query_many(a, b) -> (units, eps)`` and ``query(a, b) ->
  ExactDistance``, which answers as ``query_many`` on one pair.  An
  oracle is all an algorithm under test ever sees.  A batch answers its
  pairs in order and charges one query per pair, repeats included.

Every answer lies within ``sum_bound(n)``, so an int64 sum of n of them
is exact: a :class:`MetricTable` holds no larger entry, a
:class:`HopMetric` answers hops below n, and the glued metric and the
constant backing refuse, when built, a value that would give one.

The value of eps on either is ``distances.eps_value(n)``.  Two concrete
backings are provided:

* :class:`MetricTable`, a dense exact table held as two numpy arrays
  (integer hop units and eps counts),
* :class:`HopMetric`, shortest-path distances over a fixed undirected
  graph plus a clique given as a vertex mask, computed lazily one BFS
  row at a time; ``distances`` answers 0 and 1 from the two arrays
  without a BFS and reads one row per source of a longer answer.

Every algorithm under test talks to a backing through
:class:`CountingOracle`, which charges one query per pair asked,
repeats included, and can keep a transcript for replay checks.  A
transcript is a ``list[TranscriptEntry]`` of ``(a, b, answer)`` tuples
in query order; an entry's round is its list position.

An edge list becomes a CSR (:func:`edge_graph`) read by ``scipy.sparse.csgraph``;
dense bool matrices (the adversary's) are walked by :func:`bfs_hop_row`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
import scipy.sparse.csgraph

from .distances import ExactDistance

__all__ = [
    "DisconnectedGraphError",
    "QueryOutsideSubsetError",
    "Violation",
    "MetricTable",
    "HopMetric",
    "TranscriptEntry",
    "replay_verify",
    "CountingOracle",
    "RestrictedOracle",
    "validate_metric",
    "is_metric",
    "edge_graph",
    "graph_metric",
    "exact_median",
    "brute_force_cost",
    "brute_force_median",
    "bfs_hop_row",
    "sum_bound",
]

PointId = int

# HopMetric's symmetry check compares one t x t tile with its mirror at a
# time: no n x n temporary, and the mirror's strided reads stay in cache
_TILE = 256

# exact_median asks whole rows of its pair triangle in blocks of about this
# many pairs: one oracle round trip serves many short rows, and a block's
# index arrays stay small
_BLOCK = 4096


class DisconnectedGraphError(ValueError):
    """Raised when a graph that must be connected is not."""


class QueryOutsideSubsetError(ValueError):
    """Raised when a restricted solver touches a pair outside its subset."""


def sum_bound(n: int) -> int:
    """The largest |value| of which any n still sum within int64."""
    return (2**63 - 1) // max(n, 1)


@dataclass(frozen=True)
class Violation:
    """One violated metric axiom instance with its witnessing points."""

    kind: str  # "identity" | "positivity" | "symmetry" | "triangle"
    points: tuple


def bfs_hop_row(adjacency: np.ndarray, source, clique: np.ndarray | None = None) -> np.ndarray:
    """Hop distances from source over a symmetric boolean adjacency matrix.

    ``source`` is one vertex or a list of vertices; every source sits at
    level 0.  Returns an int64 vector with -1 for unreachable vertices.
    A boolean ``clique`` mask adds an edge between every two of its
    vertices without building them: once a frontier meets the mask, the
    whole mask is reached at the next level.  The result equals a walk
    over the materialised graph, with every two mask vertices adjacent.

    Each level is expanded in the cheaper direction (Beamer, Asanovic and
    Patterson, SC 2012): top-down, a gather of the frontier's rows, while
    the frontier holds no more vertices than remain unvisited; otherwise
    bottom-up, a gather of the unvisited rows tested against the
    frontier.  Bottom-up reads row v for the edges into v, so the matrix
    must be symmetric; the caller guarantees it.
    """
    dist = np.full(adjacency.shape[0], -1, dtype=np.int64)
    dist[source] = 0
    frontier = dist == 0
    unvisited = ~frontier
    level = 0
    while True:
        width, left = np.count_nonzero(frontier), np.count_nonzero(unvisited)
        if not width or not left:
            return dist
        level += 1
        if width <= left:
            reach = adjacency[frontier].any(axis=0)
        else:
            idx = np.flatnonzero(unvisited)
            rows = adjacency[idx]
            rows &= frontier
            reach = np.zeros_like(frontier)
            reach[idx] = rows.any(axis=1)
        if clique is not None and (frontier & clique).any():
            reach |= clique
            clique = None  # the whole mask is reached; no later level adds to it
        frontier = reach & unvisited
        unvisited ^= frontier
        dist[frontier] = level


class MetricTable:
    """Dense exact distance table on n points.

    Every entry, units and eps counts alike, lies within
    +-(2**63 - 1) // n, so any sum of n entries fits in int64 and every
    table-backed sum is exact.
    """

    def __init__(self, units: np.ndarray, eps: np.ndarray | None = None):
        units = np.asarray(units, dtype=np.int64)
        if units.ndim != 2 or units.shape[0] != units.shape[1]:
            raise ValueError("distance table must be square")
        self.units = units
        checked = [("units", units)]
        if eps is None:
            # np.zeros leaves the pages to the OS to zero on first touch,
            # and an all-zero table needs no bound check
            eps = np.zeros(units.shape, dtype=np.int64)
        else:
            eps = np.asarray(eps, dtype=np.int64)
            if eps.shape != units.shape:
                raise ValueError("eps table must match the units table")
            checked.append(("eps", eps))
        self.eps = eps
        self.n = units.shape[0]
        bound = sum_bound(self.n)
        for what, table in checked:
            if table.size and (int(table.max()) > bound or int(table.min()) < -bound):
                raise ValueError(
                    f"{what} entries must lie within +-{bound} = (2**63 - 1) // {self.n} "
                    "so that exact sums fit in 64 bits"
                )

    def distances(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The entries at (a[k], b[k]), as int64 (units, eps) arrays."""
        units, eps = self.units[a, b], self.eps[a, b]
        if (units < 0).any() or (eps < 0).any():
            raise ValueError("distance components must be nonnegative")
        return units, eps

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
    """Shortest-path hop metric over a frozen undirected graph plus a clique.

    The graph is ``adjacency`` together with an edge between every two
    vertices of the bool mask ``clique``; the clique is never built,
    :func:`bfs_hop_row` walks it through the mask.  Rows are computed on
    demand and cached, so callers that only need a handful of sources
    (replay checks, cost lookups) never pay for the full all-pairs
    matrix.  :meth:`distances` answers a batch of pairs: 0 and 1 from
    the two arrays, with no row beyond the one connectivity check, and
    a longer answer from its source's row.  Both arrays are held as
    given, not copied.  The adjacency must be symmetric, which is
    checked tile by tile so that no n x n temporary is made.  A point
    outside 0..n-1 raises ``IndexError``.
    """

    def __init__(self, adjacency: np.ndarray, clique: np.ndarray):
        adjacency = np.asarray(adjacency, dtype=bool)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise ValueError("adjacency must be square")
        if adjacency.diagonal().any():
            raise ValueError("adjacency must have an empty diagonal")
        n, t = adjacency.shape[0], _TILE
        for i in range(0, n, t):
            for j in range(i, n, t):
                if not np.array_equal(adjacency[i : i + t, j : j + t], adjacency[j : j + t, i : i + t].T):
                    raise ValueError("adjacency must be symmetric")
        clique = np.asarray(clique)
        if clique.dtype != bool or clique.shape != adjacency.shape[:1]:
            raise ValueError(f"clique must be a bool mask of length {n}")
        # no copy: callers hand over arrays they no longer change
        self.adjacency = adjacency
        self.clique = clique
        self.n = n
        self._rows: dict[int, np.ndarray] = {}

    def row(self, a: PointId) -> np.ndarray:
        cached = self._rows.get(a)
        if cached is None:
            if not 0 <= a < self.n:
                raise IndexError(f"point {a} outside space of size {self.n}")
            cached = bfs_hop_row(self.adjacency, a, clique=self.clique)
            if (cached < 0).any():
                raise DisconnectedGraphError(f"vertex {a} cannot reach the whole graph")
            self._rows[a] = cached
        return cached

    def distances(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The hop distances of the pairs (a[k], b[k]), as int64 (units, eps) arrays.

        The graph is loop-free, so answers 0 and 1 come from the two
        arrays; the cached row(0) keeps a disconnected graph raising on
        every batch, short answers included.  A longer answer reads the row of its
        source, one row per distinct source.
        """
        a, b = _as_pairs_in(a, b, self.n)
        units = (a != b).astype(np.int64)
        short = (a == b) | self.adjacency[a, b] | (self.clique[a] & self.clique[b])
        if short.any():
            self.row(0)
        far = np.flatnonzero(~short)
        order = far[np.argsort(a[far], kind="stable")]
        sources, starts = np.unique(a[order], return_index=True)
        for source, group in zip(sources.tolist(), np.split(order, starts[1:])):
            units[group] = self.row(source)[b[group]]
        return units, np.zeros_like(units)

    def cost_of(self, a: PointId) -> int:
        return int(self.row(a).sum())

    def cheapest(self, candidates: Sequence[PointId]) -> tuple[PointId, int]:
        """Minimum-total-distance candidate, ties to the lowest index.

        Uses the degree bound cost >= 2*(n-1) - deg to skip BFS runs for
        candidates that cannot win.  A clique vertex's degree counts its
        clique neighbours that ``adjacency`` does not already join it to.
        """
        cands = sorted(set(int(c) for c in candidates))
        if not cands:
            raise ValueError("no candidates")
        if self.n == 1:
            return cands[0], 0
        adj, clique = self.adjacency, self.clique
        # whole-matrix row sums: a gather of the candidates' rows would copy them
        degs = np.count_nonzero(adj, axis=1)
        degs += clique * (np.count_nonzero(clique) - 1 - adj.sum(axis=1, where=clique, dtype=np.intp))
        lower = 2 * (self.n - 1) - degs[cands]
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


class TranscriptEntry(NamedTuple):
    a: PointId
    b: PointId
    answer: ExactDistance


def replay_verify(transcript, metric) -> bool:
    """True iff every recorded answer matches the metric it claims to describe.

    An entry with a point outside 0..n-1 matches nothing, and makes the
    replay False before any distance is asked.  The metric answers the
    whole transcript as one ``distances`` batch.
    """
    try:
        a, b, units, eps = np.array(
            [(e.a, e.b, e.answer.units, e.answer.eps_count) for e in transcript], dtype=np.int64
        ).reshape(-1, 4).T
    except OverflowError:
        return False  # no point or answer in a metric of n points lies outside int64
    if ((a < 0) | (a >= metric.n) | (b < 0) | (b >= metric.n)).any():
        return False
    got_units, got_eps = metric.distances(a, b)
    return bool(np.array_equal(got_units, units) and np.array_equal(got_eps, eps))


def _as_pairs(a, b) -> tuple[np.ndarray, np.ndarray]:
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("a batch takes two equal-length 1-d arrays of points")
    return a, b


def _as_pairs_in(a, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``_as_pairs`` whose first pair with a point outside 0..n-1 raises ``IndexError``."""
    a, b = _as_pairs(a, b)
    outside = (a < 0) | (a >= n) | (b < 0) | (b >= n)
    if outside.any():
        k = int(outside.argmax())
        raise IndexError(f"query ({a[k]}, {b[k]}) outside space of size {n}")
    return a, b


def _single(batch: tuple[np.ndarray, np.ndarray]) -> ExactDistance:
    """The answer of a one-pair batch."""
    units, eps = batch
    return ExactDistance(int(units[0]), int(eps[0]))


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
        # a numpy range check of one pair costs more than a game round
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise IndexError(f"query ({a}, {b}) outside space of size {self.n}")
        return _single(self._ask(np.array([a], dtype=np.int64), np.array([b], dtype=np.int64)))

    def query_many(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        """Answer the pairs (a[k], b[k]) in order as int64 (units, eps) arrays.

        The backing answers the whole batch in one ``distances`` call.
        Charges ``len(a)`` queries and records one transcript entry per
        pair, in order.
        """
        return self._ask(*_as_pairs_in(a, b, self.n))

    def _ask(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        units, eps = self.backing.distances(a, b)
        self.queries_made += len(a)
        if self.transcript is not None:
            self.transcript.extend(
                TranscriptEntry(x, y, ExactDistance(u, e))
                for x, y, u, e in zip(a.tolist(), b.tolist(), units.tolist(), eps.tolist())
            )
        return units, eps


class RestrictedOracle:
    """Guard that confines queries to a fixed subset of the space."""

    def __init__(self, oracle, allowed: Iterable[PointId]):
        self._oracle = oracle
        S = np.fromiter(allowed, dtype=np.int64)
        S = S[(S >= 0) & (S < oracle.n)]  # no other point has an answer
        # membership over S's span [min S, max S] with a refusing pad at
        # each end, so at most n + 2 bytes
        self._lo = int(S.min()) - 1 if S.size else 0
        self._mask = np.zeros(int(S.max()) - self._lo + 2 if S.size else 1, dtype=bool)
        self._mask[S - self._lo] = True

    @property
    def n(self) -> int:
        return self._oracle.n

    @property
    def queries_made(self) -> int:
        return self._oracle.queries_made

    def query(self, a: PointId, b: PointId) -> ExactDistance:
        return _single(self.query_many([a], [b]))

    def query_many(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        """The inner oracle's ``query_many``; a batch that leaves the subset charges nothing."""
        a, b = _as_pairs(a, b)
        inside = self._allows(a)
        inside &= self._allows(b)
        if not inside.all():
            k = int(inside.argmin())
            raise QueryOutsideSubsetError(f"query ({a[k]}, {b[k]}) leaves the allowed subset")
        return self._oracle.query_many(a, b)

    def _allows(self, x: np.ndarray) -> np.ndarray:
        # one gather: clipping sends every point outside the span, negative
        # or past n included, to a pad
        return self._mask.take(x - self._lo, mode="clip")


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

    # a two-entry sum is exact in the narrowest type holding 2 * max|entry|;
    # one sum buffer and one mask per table serve every y
    has_eps = table.has_eps()
    u = _narrowest(u)
    su, bad = np.empty_like(u), np.empty((n, n), dtype=bool)
    if has_eps:
        e = _narrowest(e)
        se, tie, longer = np.empty_like(e), np.empty_like(bad), np.empty_like(bad)
    for y in range(n):
        np.add(u[:, y, None], u[None, y, :], out=su)
        np.greater(u, su, out=bad)
        if has_eps:
            np.add(e[:, y, None], e[None, y, :], out=se)
            np.equal(u, su, out=tie)
            np.greater(e, se, out=longer)
            tie &= longer
            bad |= tie
        for x, z in _argwhere_if_any(bad):
            if x != y and z != y and x != z:
                yield Violation("triangle", (int(x), int(y), int(z)))


def _narrowest(table: np.ndarray) -> np.ndarray:
    """The table in the narrowest of int16/int32/int64 where 2 * max|entry| fits."""
    top = 2 * max(int(table.max(initial=0)), -int(table.min(initial=0)))
    for dtype in (np.int16, np.int32):
        if top <= np.iinfo(dtype).max:
            return table.astype(dtype)
    return table


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


def edge_graph(n: int, edges: Iterable[tuple[int, int]]) -> scipy.sparse.csr_matrix:
    """The symmetric unit-weight CSR adjacency of an undirected edge list.

    A repeated edge counts once.  The first bad edge in the given order
    decides the error: an end outside 0..n-1, else a self loop.
    """
    e = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    outside = ((e < 0) | (e >= n)).any(axis=1)
    bad = np.flatnonzero(outside | (e[:, 0] == e[:, 1]))
    if len(bad):
        u, v = e[bad[0]].tolist()
        raise ValueError(f"edge ({u}, {v}) outside vertex range" if outside[bad[0]] else "self loops are not allowed")
    graph = scipy.sparse.csr_matrix((np.ones(2 * len(e)), (e.ravel(), e[:, ::-1].ravel())), shape=(n, n))
    graph.data[:] = 1.0  # the build summed repeated edges
    return graph


def _path_table(graph) -> np.ndarray:
    """All-pairs shortest paths of a CSR or dense weight matrix (0 is no edge), as int64.

    The float64 result is cast in its own buffer, one row at a time, so
    no second n x n table is made.  Its values are sums of integer
    weights below 2**53, hence exact.
    """
    dist = scipy.sparse.csgraph.shortest_path(graph, directed=False)
    cut = np.isinf(dist).any(axis=1)
    if cut.any():
        raise DisconnectedGraphError(f"vertex {cut.argmax()} cannot reach the whole graph")
    ints = dist.view(np.int64)
    for i in range(len(dist)):
        ints[i] = dist[i]
    return ints


def graph_metric(n: int, edges: Iterable[tuple[int, int]]) -> MetricTable:
    """All-pairs hop distances of a connected undirected graph, from its edge list.

    Raises DisconnectedGraphError when some pair has no path.
    """
    return MetricTable(_path_table(edge_graph(n, edges)))


def exact_median(oracle, S: Iterable[PointId]) -> tuple[PointId, ExactDistance]:
    """Brute-force 1-median of S through the oracle.

    Queries each unordered pair of distinct points once (symmetry is
    cached within this call only), for |S|*(|S|-1)/2 queries, row by
    row: the i-th smallest point against every larger one.  Consecutive
    rows are asked together in blocks of whole rows, about ``_BLOCK``
    pairs each and never less than one row, so the pairs keep their
    order.  Costs are exact int64 sums.  Ties go to the lowest point
    index.
    """
    pts = np.array(sorted(set(S)), dtype=np.int64)
    s = len(pts)
    if not s:
        raise ValueError("cannot take a median of the empty set")
    cost_units = np.zeros(s, dtype=np.int64)
    cost_eps = np.zeros(s, dtype=np.int64)
    lengths = np.arange(s - 1, 0, -1)  # row i pairs pts[i] with its s - 1 - i larger points
    ends = np.cumsum(lengths)  # where each row's pairs end in the whole triangle
    i = 0
    while i < s - 1:
        start = ends[i] - lengths[i]
        # the rows that end within _BLOCK pairs of row i's start, and row i at least
        j = max(i + 1, int(ends.searchsorted(start + _BLOCK, side="right")))
        lens = lengths[i:j]
        heads = ends[i:j] - lens - start  # each row's first pair within the block
        # pair heads[r] + t of the block's row i + r asks column i + r + 1 + t
        cols = np.arange(ends[j - 1] - start) + np.repeat(np.arange(i + 1, j + 1) - heads, lens)
        units, eps = oracle.query_many(np.repeat(pts[i:j], lens), pts[cols])
        cost_units[i:j] += np.add.reduceat(units, heads)
        cost_eps[i:j] += np.add.reduceat(eps, heads)
        # int64 scatter-adds: exact where a float bincount would round past 2**53
        np.add.at(cost_units, cols, units)
        np.add.at(cost_eps, cols, eps)
        i = j
    k = _lex_argmin(cost_units, cost_eps, pts)
    return int(pts[k]), ExactDistance(int(cost_units[k]), int(cost_eps[k]))


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
        block = np.s_[:, :]  # the whole table, summed where it lies
    else:
        idx = np.asarray(sorted(set(S)), dtype=np.int64)
        if idx.size == 0:
            raise ValueError("cannot take a median of the empty set")
        block = np.ix_(idx, idx)
    # one gathered copy alive at a time
    cu = table.units[block].sum(axis=1)
    ce = table.eps[block].sum(axis=1)
    k = _lex_argmin(cu, ce, idx)
    return int(idx[k]), ExactDistance(int(cu[k]), int(ce[k]))
