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

A graph holds its sorted edges, as int pairs and as one int64 array,
and one CSR adjacency, and every check reads that CSR: connectivity, the lambda2 solve, the exhaustive
neighbour masks and the BFS levels.
"""

from __future__ import annotations

import math
import os
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
_WORD_CHUNK = 8192  # 32-bit words _swap_randomize draws from its rng per chunk
_MAX_ATTEMPTS = 40  # swap rounds build_regular tries before it gives up
_EDGE_BYTES = 515  # build_regular(262144, 3, 0)'s peak RSS over the interpreter's, per edge

# the last (n, d, seed) built and its graph, or None
_last_anchor: tuple[tuple, RegularGraph] | None = None


class InfeasibleError(ValueError):
    """No graph with the requested degree sequence exists (or d < 3)."""


class NotRegularError(ValueError):
    """A graph that must be d-regular is not."""


class RegularGraph:
    """An undirected d-regular graph: sorted ``edges`` (u < v) and their ``csr`` adjacency.

    ``edge_array`` holds the same edges, in the same order, as a read-only
    int64 (E, 2) array; ``edges`` holds them as pairs of Python ints.
    """

    def __init__(self, n: int, d: int, edges: Iterable[tuple[int, int]]):
        self.csr = edge_graph(n, edges)
        degrees = np.diff(self.csr.indptr)
        if (degrees != d).any():
            raise NotRegularError(f"graph is not {d}-regular")
        self.n = n
        self.d = d
        u, v = scipy.sparse.triu(self.csr, 1).nonzero()
        order = np.lexsort((v, u))
        self.edge_array = np.column_stack([u[order], v[order]]).astype(np.int64, copy=False)
        self.edge_array.flags.writeable = False
        self.edges = tuple(zip(*self.edge_array.T.tolist()))
        # populated by build_regular for reporting
        self.build_attempts: int | None = None
        self.expansion: ExpansionReport | None = None

    def is_connected(self) -> bool:
        return scipy.sparse.csgraph.connected_components(self.csr, directed=False)[0] == 1

    def __repr__(self) -> str:
        return f"RegularGraph(n={self.n}, d={self.d}, edges={len(self.edges)})"


@dataclass(frozen=True)
class ExpansionReport:
    method: str  # "exhaustive" | "spectral"
    alpha_lower: Fraction
    lambda2: float


def default_lambda2_threshold(d: int) -> float:
    """Acceptance threshold for construction: 2*sqrt(d-1) + 0.75."""
    return 2.0 * math.sqrt(d - 1) + 0.75


def _circulant_base(n: int, d: int) -> set[tuple[int, int]]:
    """Deterministic simple d-regular start: chords 1..d//2, plus the
    antipodal matching when d is odd (which forces n even).

    The edges go into the set chord by chord, vertex by vertex, and the
    matching last, so ``list(edges)``, the swaps' first pool, has one
    fixed order.
    """
    v = np.arange(n)
    u = (v + np.arange(1, d // 2 + 1)[:, None]) % n  # one row per chord offset
    lo, hi = [np.minimum(v, u).ravel()], [np.maximum(v, u).ravel()]
    if d % 2 == 1:
        half = n // 2
        lo.append(v[:half])
        hi.append(v[half:])
    return set(zip(np.concatenate(lo).tolist(), np.concatenate(hi).tolist()))


def _decode_moves(words: np.ndarray, size: int, half: int, limit: int) -> tuple[int, int, tuple[list, list, list]]:
    """The first complete moves in ``words``, at most ``limit`` of them.

    ``words`` are draws already shifted to the pool's bit length, and the
    first begins a move.  Returns the number of moves, the index just
    past the last one's final word, and the (i, j, flip) lists of the
    moves with i != j, in order.
    """
    count = len(words)
    valid = words < size
    vpos = np.flatnonzero(valid)
    vals = words[vpos]
    # a move whose i is valid word t takes j from valid word t + 1, and
    # its flip from the raw word after j when i != j; the next move's i
    # is valid word t + 3 if that flip word was valid, else t + 2
    same = vals[:-1] == vals[1:]
    after = vpos[1:] + 1
    complete = same | (after < count)
    step = 2 + (~same & valid[np.minimum(after, count - 1)])
    t = np.arange(len(same))
    ok = np.zeros(len(vpos) + 2, dtype=bool)
    ok[: len(same)] = complete
    nxt = np.arange(len(vpos) + 2)  # an incomplete move points to itself
    nxt[: len(same)] = np.where(complete, t + step, t)
    # the moves' first valid words by pointer doubling: chain[k] is nxt
    # applied k times to 0, and nxt**(2**r) fills chain[2**r : 2**(r + 1)]
    chain, jump = np.zeros(1, dtype=np.intp), nxt
    while len(chain) < limit and ok[chain[-1]]:
        chain = np.concatenate((chain, jump[chain]))
        jump = jump[jump]
    chain = chain[:limit]
    chain = chain[: np.count_nonzero(ok[chain])]  # complete moves lead, then one repeats
    if not len(chain):
        return 0, 0, ([], [], [])
    last = chain[-1]
    end = int(after[last]) + (not same[last])  # past j, or past the flip when i != j
    swap = chain[~same[chain]]
    return len(chain), end, (vals[swap].tolist(), vals[swap + 1].tolist(), (words[after[swap]] >= half).tolist())


def _swap_randomize(n: int, edges: set[tuple[int, int]], swaps: int, rng: random.Random) -> None:
    """Shuffle a regular graph in place by double-edge swaps.

    Each accepted move replaces edges (a,b),(c,e) with (a,c),(b,e),
    which preserves every degree; moves creating loops or parallel
    edges are skipped.  Simplicity is therefore invariant.

    A move draws i = rng.randrange(L), j = rng.randrange(L) and, when
    i != j, a flip bit rng.getrandbits(1).  Instead of one call per
    draw, the moves read rng's 32-bit words in chunks and apply
    CPython's rules: randrange(L) is getrandbits(L.bit_length()) with
    rejection, and getrandbits(k) is the top k bits of one word.  A
    chunk is rng.getrandbits(32 * count), whose first word holds the
    lowest bits.

    numpy decodes a chunk's moves without a Python step per draw.  Of
    the words below L, the valid ones, a move whose i is valid word t
    takes j from valid word t + 1.  If i != j, its flip is the raw word
    right after j, valid or not, and the next move's i is valid word
    t + 3 if that flip word was valid, else t + 2; if i == j the next i
    is valid word t + 2.  A valid flip word is valid word t + 2, so the
    step of 3 passes over it and it never becomes an i.  The loop below
    only applies the decoded moves.  The words of a move the chunk ends
    inside carry over to the next chunk, so each word is drawn once, and
    after the last chunk rng is rewound to that chunk's start and steps
    over just the words used: on return it stands exactly where the
    per-call draws would have left it.
    """
    pool = list(edges)
    size = len(pool)
    bits = size.bit_length()
    shift = 32 - bits
    half = 1 << (bits - 1)  # a drawn value >= half has its word's top bit set
    words = np.empty(0, dtype=np.uint32)  # the drawn words no finished move has read
    move = 0
    while move < swaps:
        mark = rng.getstate()  # rng's state just before this chunk
        chunk = rng.getrandbits(32 * _WORD_CHUNK).to_bytes(4 * _WORD_CHUNK, "little")
        carried = len(words)
        words = np.concatenate((words, np.frombuffer(chunk, dtype="<u4") >> shift))
        count, end, (firsts, seconds, flips) = _decode_moves(words, size, half, swaps - move)
        for i, j, flip in zip(firsts, seconds, flips):
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
        move += count
        words = words[end:]
    if swaps:
        rng.setstate(mark)
        rng.getrandbits(32 * (end - carried))  # the last chunk's words the moves read


def build_regular(n: int, d: int, seed: int) -> RegularGraph:
    """Build a random d-regular graph that certifies as an expander.

    Starts from a fixed circulant and randomizes it with double-edge
    swaps (so the graph stays simple and d-regular by construction),
    then keeps swapping until the sample is connected with lambda2 at or
    below default_lambda2_threshold(d), for at most _MAX_ATTEMPTS rounds.
    Deterministic for a fixed (n, d, seed).  An (n, d) whose n*d/2 edges
    at _EDGE_BYTES each exceed physical memory is refused up front.

    The graph's ``csr`` arrays and its ``edge_array`` are read-only.  The
    process keeps the last graph built: a repeat call with the same
    (n, d, seed) returns that same object.  ``seed=None`` is never kept, the old graph is let go
    before a new one is built, and a failed build keeps nothing.
    """
    global _last_anchor
    if d < 3:
        raise InfeasibleError("need degree at least 3")
    if d >= n:
        raise InfeasibleError(f"degree {d} needs more than {n} vertices")
    if (n * d) % 2 != 0:
        raise InfeasibleError(f"no {d}-regular graph exists on {n} vertices (odd stub count)")
    _refuse_oversize(f"a {d}-regular graph on {n} vertices", n * d // 2 * _EDGE_BYTES)
    key, last = (n, d, seed), _last_anchor
    if seed is not None and last is not None and last[0] == key:
        return last[1]
    _last_anchor = last = None
    rng = random.Random(seed)
    edges = _circulant_base(n, d)
    swaps = max(2000, 10 * n * d)
    threshold = default_lambda2_threshold(d)
    for attempt in range(1, _MAX_ATTEMPTS + 1):
        _swap_randomize(n, edges, swaps, rng)
        g = RegularGraph(n, d, sorted(edges))
        try:
            report = certify_expansion(g, "spectral")
        except DisconnectedGraphError:
            continue
        if report.lambda2 <= threshold:
            break
    else:
        raise RuntimeError(f"no acceptable {d}-regular graph on {n} vertices after {_MAX_ATTEMPTS} attempts")
    g.build_attempts, g.expansion = attempt, report
    g.csr.data.flags.writeable = g.csr.indices.flags.writeable = g.csr.indptr.flags.writeable = False
    if seed is not None:
        _last_anchor = (key, g)
    return g


def _refuse_oversize(what: str, nbytes: int) -> None:
    """Raise ValueError, before anything is allocated, when nbytes exceed physical memory."""
    if nbytes > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ValueError(f"{what} needs about {nbytes} bytes, more than this machine's physical memory")


def _exhaustive_alpha(g: RegularGraph) -> Fraction:
    """Exact edge expansion by dynamic programming over all vertex sets.

    internal_edges(S) = internal_edges(S minus its lowest vertex v) plus
    |N(v) & S|, filled in one vectorized sweep per vertex.  The cut of S
    is then d|S| - 2*internal_edges(S).
    """
    n, d = g.n, g.d
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive certification is capped at n = {EXHAUSTIVE_LIMIT}")
    nbr = g.csr.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))
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
    """Second-largest adjacency eigenvalue, deterministic.

    One seeded ARPACK solve on the CSR at every size; its digits do not
    depend on the BLAS thread count.
    """
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
        return ExpansionReport("exhaustive", _exhaustive_alpha(g), _lambda2(g))
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

    One unweighted multi-source csgraph walk over ``g.csr``: a vertex's
    level is its hop distance to the nearest root.  Vertices no root
    reaches are in no level.
    """
    roots = _vertex_set(g, root_set)
    if not roots:
        raise ValueError("root set is empty")
    hops = scipy.sparse.csgraph.dijkstra(g.csr, directed=False, indices=roots, unweighted=True, min_only=True)
    dist = np.where(np.isinf(hops), -1, hops).astype(np.int64)
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
