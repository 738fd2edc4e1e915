"""Regular graphs with certified edge expansion.

The adversarial games need a d-regular anchor graph whose edges can
never be removed, with a guaranteed lower bound on edge expansion:
every vertex set S with |S| <= n/2 must have at least alpha * d * |S|
edges leaving it.  Two certification routes are provided and kept
deliberately independent of each other:

* exhaustive: enumerate every candidate set (exact, n <= 24),
* spectral: alpha >= (d - lambda2) / (2d) from the second-largest
  adjacency eigenvalue.

Construction starts from a deterministic circulant graph and shuffles
it with seeded double-edge swaps, which keep it simple and d-regular,
swapping on until the graph is connected and its lambda2 clears the
acceptance threshold.

A graph holds its sorted edges and one CSR adjacency, read by the
connectivity and lambda2 checks; ``adjacency()`` is a dense copy for small n.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse.csgraph
import scipy.sparse.linalg

# perfbench/tracer.py wraps expander.bfs_hop_row by name, so the binding stays
from .metric import DisconnectedGraphError, bfs_hop_row, edge_graph  # noqa: F401

__all__ = [
    "InfeasibleError",
    "NotRegularError",
    "RegularGraph",
    "ExpansionReport",
    "build_regular",
    "certify_expansion",
    "bfs_levels",
    "boundary_distance_sum",
    "verify_level_decay",
    "default_lambda2_threshold",
]

EXHAUSTIVE_LIMIT = 24
_ALPHA_GRAIN = 10**9  # spectral bounds are floored to this grid, conservatively
_WORD_CHUNK = 4096  # Mersenne Twister words replayed per refill in _swap_randomize
_ANCHOR_MEMO_SIZE = 8  # successful build_regular results kept per process

# (n, d, seed, threshold, max_attempts) -> (int32 edge array, attempts, report)
_anchor_memo: dict[tuple, tuple[np.ndarray, int, "ExpansionReport"]] = {}


class InfeasibleError(ValueError):
    """No graph with the requested degree sequence exists (or d < 3)."""


class NotRegularError(ValueError):
    """A graph that must be d-regular is not."""


class RegularGraph:
    """An undirected d-regular graph: sorted ``edges`` (u < v) and their ``csr`` adjacency."""

    def __init__(self, n: int, d: int, edges: Iterable[tuple[int, int]]):
        self.csr = edge_graph(n, edges)
        degrees = np.diff(self.csr.indptr)
        if (degrees != d).any():
            raise NotRegularError(f"graph is not {d}-regular")
        self.n = n
        self.d = d
        u, v = scipy.sparse.triu(self.csr, 1).nonzero()
        self.edges = tuple(sorted(zip(u.tolist(), v.tolist())))
        # populated by build_regular for reporting
        self.build_attempts: int | None = None
        self.expansion: ExpansionReport | None = None

    def adjacency(self) -> np.ndarray:
        """A fresh dense n x n bool copy of the adjacency; for small n."""
        return self.csr.astype(bool).toarray()

    def is_connected(self) -> bool:
        return scipy.sparse.csgraph.connected_components(self.csr, directed=False)[0] == 1

    def __repr__(self) -> str:
        return f"RegularGraph(n={self.n}, d={self.d}, edges={len(self.edges)})"


@dataclass(frozen=True)
class ExpansionReport:
    method: str  # "exhaustive" | "spectral"
    alpha_lower: Fraction
    lambda2: float | None


def default_lambda2_threshold(d: int) -> float:
    """Acceptance threshold for construction: 2*sqrt(d-1) + 0.75."""
    return 2.0 * math.sqrt(d - 1) + 0.75


def _circulant_base(n: int, d: int) -> set[tuple[int, int]]:
    """Deterministic simple d-regular start: chords 1..d//2, plus the
    antipodal matching when d is odd (which forces n even)."""
    edges: set[tuple[int, int]] = set()
    for off in range(1, d // 2 + 1):
        for v in range(n):
            u = (v + off) % n
            edges.add((min(v, u), max(v, u)))
    if d % 2 == 1:
        half = n // 2
        for v in range(half):
            edges.add((v, v + half))
    return edges


def _swap_randomize(n: int, edges: set[tuple[int, int]], swaps: int, rng: random.Random) -> None:
    """Shuffle a regular graph in place by double-edge swaps.

    Each accepted move replaces edges (a,b),(c,e) with (a,c),(b,e),
    which preserves every degree; moves creating loops or parallel
    edges are skipped.  Simplicity is therefore invariant.

    A move draws i = rng.randrange(L), j = rng.randrange(L) and, when
    i != j, a flip bit rng.getrandbits(1).  Instead of one call per
    draw, rng's Mersenne Twister words are replayed in chunks through
    numpy's MT19937 under CPython's rules: randrange(L) is
    getrandbits(L.bit_length()) with rejection, and getrandbits(k) is
    the top k bits of one 32-bit word.  On return rng stands exactly
    where the per-call draws would have left it.
    """
    pool = list(edges)
    size = len(pool)
    bits = size.bit_length()
    shift = 32 - bits
    half = 1 << (bits - 1)  # a drawn value >= half has its word's top bit set
    version, internal, gauss_next = rng.getstate()
    mt = np.random.MT19937()
    mt.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(internal[:-1], dtype=np.uint32), "pos": internal[-1]},
    }
    mark = mt.state  # generator state just before words[0]
    words = (mt.random_raw(_WORD_CHUNK) >> shift).tolist()
    p = start = 0
    move = 0
    while move < swaps:
        try:
            for move in range(move, swaps):
                start = p
                i = words[p]
                p += 1
                while i >= size:
                    i = words[p]
                    p += 1
                j = words[p]
                p += 1
                while j >= size:
                    j = words[p]
                    p += 1
                if i == j:
                    continue
                flip = words[p] >= half
                p += 1
                a, b = old1 = pool[i]
                old2 = pool[j]
                if flip:
                    e, c = old2
                else:
                    c, e = old2
                if a == c or a == e or b == c or b == e:
                    continue
                new1 = (a, c) if a < c else (c, a)
                new2 = (b, e) if b < e else (e, b)
                if new1 in edges or new2 in edges:
                    continue
                edges.discard(old1)
                edges.discard(old2)
                edges.add(new1)
                edges.add(new2)
                pool[i] = new1
                pool[j] = new2
            move = swaps
        except IndexError:
            # the chunk ran dry mid-move: refill from the move's first word
            mt.state = mark
            mt.random_raw(start)
            mark = mt.state
            words = (mt.random_raw(_WORD_CHUNK) >> shift).tolist()
            p = 0
    mt.state = mark
    mt.random_raw(p)
    state = mt.state["state"]
    rng.setstate((version, tuple(state["key"].tolist()) + (state["pos"],), gauss_next))


def build_regular(
    n: int,
    d: int,
    seed: int,
    lambda2_threshold: float | None = None,
    max_attempts: int = 40,
) -> RegularGraph:
    """Build a random d-regular graph that certifies as an expander.

    Starts from a fixed circulant and randomizes it with double-edge
    swaps (so the graph stays simple and d-regular by construction),
    then keeps swapping until the sample is connected with lambda2 at
    or below the threshold.  Deterministic for a fixed (n, d, seed).

    Successful builds are memoised per process (the last
    _ANCHOR_MEMO_SIZE of them, as compact edge arrays); a repeat call
    returns a fresh RegularGraph equal to a cold build without
    swapping or certifying again.
    """
    if d < 3:
        raise InfeasibleError("need degree at least 3")
    if d >= n:
        raise InfeasibleError(f"degree {d} needs more than {n} vertices")
    if (n * d) % 2 != 0:
        raise InfeasibleError(f"no {d}-regular graph exists on {n} vertices (odd stub count)")
    threshold = default_lambda2_threshold(d) if lambda2_threshold is None else lambda2_threshold
    # seed=None draws fresh OS entropy on every call, so it is never memoised
    key = None if seed is None else (n, d, seed, threshold, max_attempts)
    hit = _anchor_memo.pop(key, None)
    if hit is not None:
        _anchor_memo[key] = hit  # reinsert as most recently used
        edge_array, attempts, report = hit
        g = RegularGraph(n, d, map(tuple, edge_array.tolist()))
    else:
        g, attempts, report = _build_certified(n, d, seed, threshold, max_attempts)
        if key is not None:
            if len(_anchor_memo) >= _ANCHOR_MEMO_SIZE:
                del _anchor_memo[next(iter(_anchor_memo))]
            _anchor_memo[key] = (np.array(g.edges, dtype=np.int32), attempts, report)
    g.build_attempts = attempts
    g.expansion = report
    return g


def _build_certified(
    n: int, d: int, seed: int | None, threshold: float, max_attempts: int
) -> tuple[RegularGraph, int, ExpansionReport]:
    rng = random.Random(seed)
    edges = _circulant_base(n, d)
    swaps = max(2000, 10 * n * d)
    for attempt in range(max_attempts):
        _swap_randomize(n, edges, swaps, rng)
        g = RegularGraph(n, d, sorted(edges))
        try:
            report = certify_expansion(g, "spectral")
        except DisconnectedGraphError:
            continue
        if report.lambda2 is not None and report.lambda2 <= threshold:
            return g, attempt + 1, report
    raise RuntimeError(f"no acceptable {d}-regular graph on {n} vertices after {max_attempts} attempts")


def _exhaustive_alpha(g: RegularGraph) -> Fraction:
    """Exact edge expansion by dynamic programming over all vertex sets.

    internal_edges(S) = internal_edges(S minus its lowest vertex v) plus
    |N(v) & S|, filled in one vectorized sweep per vertex.  The cut of S
    is then d|S| - 2*internal_edges(S).
    """
    n, d = g.n, g.d
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive certification is capped at n = {EXHAUSTIVE_LIMIT}")
    nbr = g.adjacency().astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))
    size = 1 << n
    internal = np.zeros(size, dtype=np.int32)
    for v in range(n - 1, -1, -1):
        high = np.arange(0, size, 1 << (v + 1), dtype=np.uint32)
        if high.size == 0:
            continue
        masks = high | np.uint32(1 << v)
        overlap = np.bitwise_count(np.bitwise_and(high, np.uint32(nbr[v])))
        internal[masks] = internal[high] + overlap.astype(np.int32)
    sizes = np.bitwise_count(np.arange(size, dtype=np.uint32)).astype(np.int32)
    # every size 1..n/2 occurs among the 2**n sets, and n > d >= 3
    return min(
        Fraction(int((d * s - 2 * internal[sizes == s]).min()), d * s)
        for s in range(1, n // 2 + 1)
    )


def _lambda2(g: RegularGraph) -> float:
    """Second-largest adjacency eigenvalue, deterministic."""
    if g.n <= 600:
        return float(np.linalg.eigvalsh(g.csr.toarray())[-2])
    v0 = np.random.default_rng(1234).standard_normal(g.n)
    vals = scipy.sparse.linalg.eigsh(g.csr, k=2, which="LA", v0=v0, return_eigenvectors=False)
    return float(np.sort(vals)[0])


def certify_expansion(g: RegularGraph, method: str = "spectral") -> ExpansionReport:
    """Certified lower bound on the edge expansion of g.

    exhaustive: exact minimum of cut(S) / (d |S|) over all S with
    1 <= |S| <= n/2 (n <= 24 only).  spectral: the floor-rounded value
    of (d - lambda2) / (2d), valid for every set size at once.  Both
    raise DisconnectedGraphError instead of certifying alpha = 0.
    """
    if not g.is_connected():
        raise DisconnectedGraphError("graph is disconnected")
    if method == "exhaustive":
        lam = _lambda2(g) if g.n <= 600 else None
        return ExpansionReport("exhaustive", _exhaustive_alpha(g), lam)
    if method == "spectral":
        lam = _lambda2(g)
        raw = (g.d - lam) / (2.0 * g.d)
        floored = max(0, math.floor(raw * _ALPHA_GRAIN) - 1)
        return ExpansionReport("spectral", Fraction(floored, _ALPHA_GRAIN), lam)
    raise ValueError(f"unknown certification method {method!r}")


def _vertex_set(g: RegularGraph, vertices: Iterable[int]) -> list[int]:
    """The distinct vertices, sorted; raises ValueError on one outside 0..n-1."""
    vs = sorted(set(int(v) for v in vertices))
    if vs and not (0 <= vs[0] and vs[-1] < g.n):
        raise ValueError(f"vertex {vs[0] if vs[0] < 0 else vs[-1]} outside 0..{g.n - 1}")
    return vs


def bfs_levels(g: RegularGraph, root_set: Iterable[int]) -> list[list[int]]:
    """BFS level sets from a multi-source root set; level 0 is the root set.

    One unweighted csgraph walk over ``g.csr`` plus a super-source joined
    to every root: a vertex's level is its hop distance from the
    super-source, less one.  Vertices no root reaches are in no level.
    """
    roots = _vertex_set(g, root_set)
    if not roots:
        raise ValueError("root set is empty")
    csr = g.csr
    joined = scipy.sparse.csr_matrix(
        (
            np.concatenate([csr.data, np.ones(len(roots))]),
            np.concatenate([csr.indices, roots]),
            np.append(csr.indptr, csr.nnz + len(roots)),
        ),
        shape=(g.n + 1, g.n + 1),
    )
    hops = scipy.sparse.csgraph.shortest_path(joined, directed=False, unweighted=True, indices=g.n)[: g.n]
    dist = np.where(np.isinf(hops), -1, hops - 1).astype(np.int64)
    return [np.flatnonzero(dist == k).tolist() for k in range(int(dist.max()) + 1)]


def _levels_outside(g: RegularGraph, U: Sequence[int]) -> tuple[set[int], list[list[int]]]:
    """The vertex set U and its BFS levels, measured from the complement of U."""
    inside = set(_vertex_set(g, U))
    if not inside or len(inside) >= g.n:
        raise ValueError("U must be a nonempty proper subset of the vertices")
    return inside, bfs_levels(g, set(range(g.n)) - inside)


def boundary_distance_sum(g: RegularGraph, U: Sequence[int]) -> int:
    """Sum over u in U of the hop distance from u to the complement of U."""
    levels = _levels_outside(g, U)[1]
    return sum(i * len(level) for i, level in enumerate(levels))


def verify_level_decay(g: RegularGraph, U: Sequence[int], alpha) -> bool:
    """Check the geometric decay that expansion forces on BFS tails.

    With levels L_1, L_2, ... of U (measured from the complement of U)
    and tails S_i = L_i + L_(i+1) + ..., expansion alpha demands
    |S_(i+1)| <= (1 - alpha) |S_i| for every i >= 1, and in total
    boundary_distance_sum(g, U) <= |U| / alpha**2.  Returns False as
    soon as either bound is violated, so feeding an inflated alpha is a
    cheap way to watch it fail.
    """
    a = Fraction(alpha)
    if not (0 < a <= 1):
        raise ValueError("alpha must be in (0, 1]")
    inside, levels = _levels_outside(g, U)
    if 2 * len(inside) > g.n:
        raise ValueError("expansion arguments need |U| <= n/2")
    sizes = [len(lv) for lv in levels]
    tails = [sum(sizes[i:]) for i in range(1, len(sizes))]
    if any(Fraction(later) > (1 - a) * tail for tail, later in zip(tails, tails[1:])):
        return False
    bsum = sum(i * size for i, size in enumerate(sizes))
    return Fraction(bsum) <= Fraction(len(inside)) / (a * a)
