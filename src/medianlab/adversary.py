"""An answer-now, commit-later distance adversary.

The adversary hosts an n-point space whose metric is decided while the
game runs.  It starts from the complete graph with a d-regular expander
marked as permanent scaffolding, and answers every query (a, b) with
the current shortest-path hop distance.  The edges of one chosen
shortest path are then marked permanent, and any vertex whose permanent
degree has climbed above the cap C loses all of its non-permanent edges
at once.  Permanent edges are never removed, so all answers given so
far remain exactly the shortest-path distances of every later graph,
including the final one: an algorithm cannot distinguish this game from
an honest metric fixed in advance.

The state is exactly that: the permanent edges and a mask of the
vertices not yet pruned ("alive").  The live graph is the permanent
edges plus a clique on the alive vertices, so it is never stored; the
answer BFS and the final :class:`HopMetric` treat the alive set as a
clique of their own.  A round only hardens edges between alive
vertices, which were live already, so the live graph changes only when
a vertex is pruned: a round keeps the last source's full hop row, with
the vertex list of each level it walked back through, and reuses both
until the next prune.

A round is one pass.  The branch that picks the answer also names the
reply path's one edge that may not be permanent yet: none for 0, the
pair itself for 1 between two alive ends not yet joined, and for a
longer answer the walk-back's one clique hop, or its last step into the
source if that is not permanent.  Only that edge is hardened and only
its two ends are held against the cap.

``distances`` serves a batch of pairs in order as consecutive rounds,
so a :class:`CountingOracle` hands it a player's whole ``query_many``
batch, and ``finalize`` serves its padding as one such batch.  A batch
checks that no anchor edge was lost before its first round and after
its last; the rounds in between are not checked one by one.  A batch of
one pair is one ``answer``, which checks the anchor after its round.

The cost of the construction is that heavily queried vertices end up
isolated behind their few permanent edges, far from everything, while
at least half the space (the "good" vertices, permanent degree below C)
keeps pairwise distance 1.  A returned point that was queried heavily
is therefore an expensive median, which is what the lower-bound games
exploit.

The cap must satisfy C > 2d + 4q/n for a game of q rounds, which keeps
the bookkeeping honest: each round marks at most one brand-new edge
permanent, at most two per vertex, so few vertices can ever go bad.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Sequence

import numpy as np
import scipy.sparse.csgraph

from .distances import ExactDistance
from .metric import (
    HopMetric, TranscriptEntry, _as_pairs, _as_pairs_in, _replay_arrays, _transcript_arrays, bfs_hop_row, is_metric,
    replay_verify,
)
from .expander import RegularGraph

__all__ = [
    "BadConstantError",
    "BudgetExhaustedError",
    "PadOverflowError",
    "Adversary",
    "Certificate",
    "minimal_cap",
    "verify_consistency",
    "verify_path_discipline",
    "ball_growth_ok",
    "verify_certificate",
]

Edge = tuple[int, int]

# answers are frozen, so one instance per hop distance serves every round
_exact = functools.cache(ExactDistance)


class BadConstantError(ValueError):
    """The pruning cap does not strictly dominate 2d + 4q/n."""


class BudgetExhaustedError(RuntimeError):
    """The adversary has already served its full round budget."""


class PadOverflowError(RuntimeError):
    """Finalize needs n pad rounds and the remaining budget is smaller.

    Signals a game configured with fewer total rounds than points; such
    budgets are served through the glued small-space construction in
    :mod:`medianlab.lowerbound` instead.
    """


def minimal_cap(n: int, rounds: int, degree: int) -> int:
    """Smallest integer cap C with C > 2*degree + 4*rounds/n."""
    return 2 * degree + (4 * rounds) // n + 1


class Adversary:
    """One playable game instance; single use, deterministic.

    The anchor fixes the size n and the degree d of the arena.
    """

    def __init__(self, anchor: RegularGraph, rounds: int, cap: int):
        n, degree = anchor.n, anchor.d
        if n < 2:
            raise ValueError("the game needs at least two points")
        if rounds < 1:
            raise ValueError("the game needs at least one round")
        if cap < minimal_cap(n, rounds, degree):
            raise BadConstantError(
                f"cap {cap} must exceed 2*{degree} + 4*{rounds}/{n} = "
                f"{Fraction(2 * degree * n + 4 * rounds, n)}"
            )
        self.n = n
        self.rounds = rounds
        self.cap = cap
        self.anchor = anchor

        exp = np.asarray(anchor.edges, dtype=np.int64)
        u, v = exp[:, 0], exp[:, 1]
        self._perm = np.zeros((n, n), dtype=bool)
        self._perm[u, v] = self._perm[v, u] = True
        self._anchor_flat = u * n + v  # anchor cells of perm, flattened
        self._degree = np.bincount(exp.ravel(), minlength=n).tolist()  # perm's row counts, kept in step
        self._alive = np.ones(n, dtype=bool)
        # the last answer BFS, exact until a prune: its source, full hop
        # row, and per level walked back through, (sorted vertices, lowest
        # alive one or n)
        self._hop_row: tuple[int, np.ndarray, dict[int, tuple[np.ndarray, int]]] | None = None

        self.transcript: list[TranscriptEntry] = []
        self.paths: list[tuple[int, ...]] = []
        self.pruned_log: list[tuple[int, ...]] = []

    @property
    def rounds_served(self) -> int:
        return len(self.paths)

    # -- backing interface, so a CountingOracle can front the game -----

    def distances(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        """Serve the pairs (a[k], b[k]) in order as consecutive rounds.

        Returns the answers as int64 (units, eps) arrays, eps all zero.
        A batch with a point outside 0..n-1, or with more pairs than
        rounds left, raises before any pair is served.  The anchor is
        checked before the first round and after the last, not per round;
        a one-pair batch is :meth:`answer`, one check after its round.
        """
        a, b = _as_pairs(a, b)
        if len(a) == 1:  # perfbench/tracer.py times single rounds through answer by name
            return np.array([self.answer(int(a[0]), int(b[0]))], dtype=np.int64), np.zeros(1, dtype=np.int64)
        a, b = _as_pairs_in(a, b, self.n)
        left = self.rounds - self.rounds_served
        if len(a) > left:
            raise BudgetExhaustedError(f"a batch of {len(a)} rounds with {left} of {self.rounds} left")
        # a lost anchor cell that a later round of the batch hardens again
        # would pass the check after the batch, so check before it too
        self._check_anchor()
        units = np.fromiter(map(self._serve, a.tolist(), b.tolist()), dtype=np.int64, count=len(a))
        self._check_anchor()
        return units, np.zeros_like(units)

    # -- play ----------------------------------------------------------

    def answer(self, a: int, b: int) -> int:
        """Serve one round: answer, mark the reply path, prune."""
        if self.rounds_served >= self.rounds:
            raise BudgetExhaustedError(f"all {self.rounds} rounds already served")
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise IndexError(f"query ({a}, {b}) outside space of size {self.n}")
        dist = self._serve(a, b)
        self._check_anchor()
        return dist

    def _check_anchor(self) -> None:
        # no round clears a perm cell, so an anchor cell is lost only by code
        # outside the adversary, which never runs inside a call: reads at
        # the ends of a call stand for one per round
        if not self._perm.take(self._anchor_flat).all():
            raise AssertionError("anchor edge lost")

    def _serve(self, a: int, b: int) -> int:
        """One round on points already checked: answer, harden the fresh edge, prune, record."""
        perm, alive = self._perm, self._alive
        if a == b:
            dist, path, fresh = 0, (a,), None
        elif perm[a, b]:
            dist, path, fresh = 1, (a, b), None
        elif alive[a] and alive[b]:
            dist, path, fresh = 1, (a, b), (a, b)
        else:
            dist, path, fresh = self._walk_back(a, b)
        self.paths.append(path)
        self.pruned_log.append(() if fresh is None else self._harden(*fresh))
        self.transcript.append(TranscriptEntry(a, b, _exact(dist)))
        return dist

    def _walk_back(self, a: int, b: int) -> tuple[int, tuple[int, ...], Edge | None]:
        """A long answer: its hop distance, reply path, and the path's fresh edge or None.

        The path walks back from b choosing the lowest-index predecessor
        at every step; any shortest path is valid, this one is
        deterministic.  A step is the first perm neighbour in the level
        below, unless it starts at an alive vertex, which also neighbours
        every other alive vertex: then it is the lower of that and the
        level's lowest alive vertex, a clique hop.  a is the only vertex
        at level 0.  A clique hop taken that way, or a last step into a
        that is not permanent, is the only edge that can be fresh.
        """
        perm, alive = self._perm, self._alive
        if self._hop_row is not None and self._hop_row[0] == a:
            _, dist, levels = self._hop_row
        else:
            dist, levels = bfs_hop_row(perm, a, clique=alive), {}
            self._hop_row = (a, dist, levels)
        hops = int(dist[b])
        if hops < 0:
            raise AssertionError("adversary graph lost connectivity")
        path = [a] * hops + [b]
        fresh = None
        cur = b
        for level in range(hops - 1, 0, -1):
            below = levels.get(level)
            if below is None:
                vertices = np.flatnonzero(dist == level)
                alive_there = vertices[alive.take(vertices)]
                below = levels[level] = (vertices, int(alive_there[0]) if len(alive_there) else self.n)
            vertices, lowest = below
            hits = perm[cur].take(vertices)
            k = int(hits.argmax())
            step = int(vertices[k]) if hits[k] else self.n
            if alive[cur] and lowest < step:
                step = lowest
                fresh = self._only_fresh(fresh, cur, step)
            elif step == self.n:
                raise AssertionError("reply path uses a missing edge")
            path[level] = cur = step
        if not perm[cur, a]:
            fresh = self._only_fresh(fresh, cur, a)
        return hops, tuple(path), fresh

    def _only_fresh(self, fresh: Edge | None, u: int, v: int) -> Edge:
        """(u, v) as the path's fresh edge: a clique hop, and the path's first.

        A shortest live path takes at most one clique hop: two would have a shortcut.
        """
        if fresh is not None:
            raise AssertionError("reply path has two fresh edges")
        if not (self._alive[u] and self._alive[v]):
            raise AssertionError("reply path uses a missing edge")
        return u, v

    def _harden(self, u: int, v: int) -> tuple[int, ...]:
        """Make the fresh edge permanent and prune each end now over the cap, lower end first.

        A pruned vertex leaves the alive clique and keeps only its
        permanent edges, so it is never touched again and never pruned
        twice.
        """
        perm, degree = self._perm, self._degree
        if perm[u, v]:
            raise AssertionError("fresh edge already permanent")
        perm[u, v] = perm[v, u] = True
        degree[u] += 1
        degree[v] += 1
        pruned = tuple(x for x in ((u, v) if u < v else (v, u)) if degree[x] > self.cap)
        if pruned:
            self._alive[list(pruned)] = False
            self._hop_row = None  # the live graph just lost edges
        return pruned

    # -- settle --------------------------------------------------------

    def finalize(self, output: int) -> "Certificate":
        """Pad to the full budget, freeze the metric, and grade the output.

        Padding first queries (output, x) for every point x, then
        repeats (output, output+1 mod n) until exactly ``rounds`` rounds
        have been served; the whole padding is one ``distances`` batch.
        """
        if not (0 <= output < self.n):
            raise IndexError(f"output {output} outside space of size {self.n}")
        if self.rounds_served + self.n > self.rounds:
            raise PadOverflowError(
                f"{self.rounds - self.rounds_served} rounds left, "
                f"padding needs {self.n}; configure rounds >= queries + n"
            )
        pad = np.full(self.rounds - self.rounds_served, (output + 1) % self.n, dtype=np.int64)
        pad[: self.n] = np.arange(self.n)
        self.distances(np.full(len(pad), output, dtype=np.int64), pad)

        # no copies: every later answer raises BudgetExhaustedError
        final = HopMetric(self._perm, self._alive)
        good = np.flatnonzero(~_went_bad(np.asarray(self._degree), self.cap))
        if not len(good):
            raise AssertionError("fewer than half the points may go bad")
        z_cost = final.cost_of(output)
        return Certificate(
            n=self.n,
            degree=self.anchor.d,
            cap=self.cap,
            final_metric=final,
            anchor_edges=self.anchor.edges,
            paths=tuple(self.paths),
            pruned_log=tuple(self.pruned_log),
            transcript=self.transcript,
            z_star=output,
            z_star_cost=z_cost,
            best_good=final.cheapest(good.tolist()),
        )


def _went_bad(degree: np.ndarray, cap: int) -> np.ndarray:
    """The cap rule: mask of the vertices whose permanent degree reached C."""
    return degree >= cap


def _perm_degree(perm: np.ndarray) -> np.ndarray:
    """Each vertex's permanent degree, counted from ``perm``."""
    return np.count_nonzero(perm, axis=1)


@dataclass
class Certificate:
    """Everything needed to audit one finished game, each fact stored once.

    The fields hold the game's configuration, its record and its claims
    (``z_star``, ``z_star_cost``, ``best_good``).  ``perm``, ``bad``,
    ``rounds`` and ``ratio`` are read-only views of them: ``bad`` is read
    from the permanent edges that path discipline audits.  ``final_metric``
    walks ``perm`` plus a clique on the vertices never pruned.
    """

    n: int
    degree: int
    cap: int
    final_metric: HopMetric
    anchor_edges: tuple[Edge, ...]
    paths: tuple[tuple[int, ...], ...]
    pruned_log: tuple[tuple[int, ...], ...]
    transcript: list[TranscriptEntry]
    z_star: int
    z_star_cost: int
    best_good: tuple[int, int]

    @property
    def perm(self) -> np.ndarray:
        return self.final_metric.adjacency

    @property
    def bad(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(_went_bad(_perm_degree(self.perm), self.cap)).tolist())

    @property
    def rounds(self) -> int:
        return len(self.transcript)

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.z_star_cost, self.best_good[1])

    @property
    def max_perm_degree(self) -> int:
        return int(_perm_degree(self.perm).max())

    def alive_after(self, i: int) -> np.ndarray:
        """Mask of the vertices not pruned by the end of round i (0 = before any query).

        The graph after round i is the permanent edges plus a clique on
        these vertices.  The final ``perm`` serves every round: an edge
        turns permanent only while both its ends are unpruned, so every
        later one lies inside that clique anyway.
        """
        if not (0 <= i <= len(self.pruned_log)):
            raise IndexError(f"round {i} out of range")
        alive = np.ones(self.n, dtype=bool)
        alive[[v for pruned in self.pruned_log[:i] for v in pruned]] = False
        return alive


# -- auditors -----------------------------------------------------------


def verify_consistency(cert: Certificate) -> bool:
    """Every answer ever given equals the final metric's distance."""
    return replay_verify(cert.transcript, cert.final_metric)


def _anchor_array(cert: Certificate) -> np.ndarray:
    """The anchor edges as a (k, 2) int64 array."""
    return np.fromiter(chain.from_iterable(cert.anchor_edges), dtype=np.int64).reshape(-1, 2)


def verify_path_discipline(cert: Certificate) -> bool:
    """Re-derive the permanence timeline and the pruning from the reply paths.

    Checks, per round: the reply path runs from its transcript entry's a
    to its b in answer + 1 vertices, repeats no edge, at most two of its
    edges touch any one vertex, it contained at most one edge that was
    not yet permanent when it was picked, that edge did not touch a
    pruned vertex, and the round pruned exactly the vertices whose
    permanent degree first exceeded the cap in it.  The final metric
    must walk exactly the recomputed permanent edges plus a clique on
    the vertices never pruned.

    The timeline depends on the paths and the anchor alone; the log is
    only compared with it.  So every round is replayed at once, in
    array passes over all path edges, and the verdict is the one a
    round-by-round walk that stops at the first failing round gives.
    """
    return _path_discipline(cert, _transcript_arrays(cert.transcript), _anchor_array(cert))


def _path_discipline(cert: Certificate, entries: np.ndarray | None, anchor: np.ndarray) -> bool:
    """:func:`verify_path_discipline` on the transcript and anchor already read as arrays."""
    n, rounds = cert.n, len(cert.paths)
    if len(cert.pruned_log) != rounds or entries is None or entries.shape[1] != rounds:
        return False
    if ((anchor < 0) | (anchor >= n)).any():
        return False
    anchor_keys = np.sort(anchor[:, 0] * n + anchor[:, 1])
    anchor_keys = anchor_keys[_starts(anchor_keys)]

    # every path edge, in round order, as a (u < v) key tagged with its round
    lengths = np.fromiter(map(len, cert.paths), dtype=np.int64, count=rounds)
    walk = np.fromiter(chain.from_iterable(cert.paths), dtype=np.int64, count=int(lengths.sum()))
    if ((walk < 0) | (walk >= n)).any():
        return False
    # a round's path runs from its pair's a to its b, one vertex per hop of an answer without eps
    a, b, units, eps = entries
    if eps.any() or not np.array_equal(lengths, units + 1):
        return False
    ends = np.cumsum(lengths)
    if not (np.array_equal(walk[ends - lengths], a) and np.array_equal(walk[ends - 1], b)):
        return False
    step_round = np.repeat(np.arange(rounds), lengths)
    inside = step_round[:-1] == step_round[1:]
    u, v, edge_round = walk[:-1][inside], walk[1:][inside], step_round[:-1][inside]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = lo * n + hi
    # one stable sort of the keys: each key's uses sit together, in round order
    order = np.argsort(keys, kind="stable")
    starts = _starts(keys[order])
    if (~starts[1:] & (np.diff(edge_round[order]) == 0)).any():
        return False  # reply paths are simple
    # a (round, vertex) pair as round * n + vertex, far inside int64 as lo * n + hi is
    touches = np.sort(np.concatenate([edge_round * n + u, edge_round * n + v]))
    if (touches[2:] == touches[:-2]).any():
        return False  # at most two of a path's edges touch any one vertex

    # an edge is fresh in the round of its first use, unless the anchor holds it
    first = np.zeros(len(keys), dtype=bool)
    first[order[starts]] = True
    fresh = first & ~_held(keys, anchor_keys)
    fresh_round = edge_round[fresh]
    if (fresh_round[1:] == fresh_round[:-1]).any():
        return False  # at most one fresh edge per round

    # permanent degree after each fresh edge at each of its ends, in round
    # order: the ends sorted by vertex, then round, as vertex * rounds + round
    incidences = np.concatenate([lo[fresh], hi[fresh]]) * rounds + np.concatenate([fresh_round, fresh_round])
    touched, touch_round = np.divmod(np.sort(incidences), rounds)
    rank = np.arange(len(touched)) - np.searchsorted(touched, touched) + 1
    anchor_degree = np.bincount(np.concatenate([anchor_keys // n, anchor_keys % n]), minlength=n)
    over = anchor_degree[touched] + rank > cert.cap
    if np.bincount(touched[over], minlength=n).max(initial=0) > 1:
        return False  # pruning cut every flexible edge at a pruned vertex
    # the vertices due in each round are those first over the cap in it
    due_round, due = touch_round[over], touched[over]
    order = np.lexsort((due, due_round))
    logged = np.fromiter(map(len, cert.pruned_log), dtype=np.int64, count=rounds)
    if not np.array_equal(np.bincount(due_round, minlength=rounds), logged):
        return False
    if not np.array_equal(due[order], np.fromiter(chain.from_iterable(cert.pruned_log), dtype=np.int64)):
        return False

    # the final metric walks the anchor plus every path edge, and the
    # clique it never pruned.  Its adjacency is symmetric with an empty
    # diagonal, so holding every recomputed (u < v) edge and no more
    # cells than those edges fill is the same edge set.
    final = cert.final_metric
    if final.adjacency.shape != (n, n):
        return False
    # the anchor and the fresh edges are disjoint and each holds no key twice
    rows, cols = np.divmod(np.concatenate([anchor_keys, keys[fresh]]), n)
    if not ((rows < cols).all() and final.adjacency[rows, cols].all()):
        return False
    if np.count_nonzero(final.adjacency) != 2 * len(rows):
        return False
    return bool(np.array_equal(final.clique, cert.alive_after(len(cert.pruned_log))))


def _starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    starts = np.ones(len(ordered), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    return starts


def _held(values: np.ndarray, ordered: np.ndarray) -> np.ndarray:
    """Mask of the values found in the sorted array ``ordered``."""
    if not len(ordered):
        return np.zeros(len(values), dtype=bool)
    return ordered.take(np.searchsorted(ordered, values), mode="clip") == values


def ball_growth_ok(cert: Certificate) -> bool:
    """Permanent-graph balls around the output grow at most like (C+2)^k."""
    hops = bfs_hop_row(cert.perm, cert.z_star)
    if (hops < 0).any():
        raise AssertionError("permanent graph must stay connected (it holds the anchor)")
    base = cert.cap + 2
    reach = 1
    bound = 1
    term = 1
    for k in range(1, int(hops.max()) + 1):
        reach += int((hops == k).sum())
        term *= base
        bound += term
        if reach > bound:
            return False
    return True


def _anchor_preserved(cert: Certificate, anchor: np.ndarray) -> bool:
    """Every anchor edge joins two points of the space by a permanent edge of the final metric."""
    adjacency = cert.final_metric.adjacency
    if ((anchor < 0) | (anchor >= len(adjacency))).any():
        return False
    return bool(adjacency[anchor[:, 0], anchor[:, 1]].all())


def _hub_costs(cert: Certificate, points: Sequence[int]) -> list[int] | None:
    """cost(p) for each p, recomputed without the final metric; None if not exact.

    The final metric is half the shortest-path metric of the permanent
    edges at weight 2 plus one hub joined at weight 1 to every vertex
    that was never pruned: two of those meet through the hub at 2, one
    live clique hop.  The hub graph is rebuilt from ``perm`` and
    ``pruned_log`` and walked by csgraph's Dijkstra, which the adversary
    never runs.
    """
    n = cert.n
    us, vs = np.divmod(np.flatnonzero(cert.perm), len(cert.perm))  # np.nonzero's order, one pass
    hubbed = np.flatnonzero(cert.alive_after(len(cert.pruned_log)))
    rows = np.concatenate([us, hubbed])
    cols = np.concatenate([vs, np.full(len(hubbed), n)])
    weights = np.concatenate([np.full(len(us), 2.0), np.ones(len(hubbed))])
    graph = scipy.sparse.csr_matrix((weights, (rows, cols)), shape=(n + 1, n + 1))
    dist = scipy.sparse.csgraph.dijkstra(graph, directed=False, indices=list(points))[:, :n]
    if not np.isfinite(dist).all() or (dist % 2).any():
        return None
    return [int(total) // 2 for total in dist.astype(np.int64).sum(axis=1)]


def _ratio_exact(cert: Certificate) -> bool:
    """cost(z*) and cost(y), whose quotient is the ratio, equal the hub graph's, exactly."""
    return _hub_costs(cert, [cert.z_star, cert.best_good[0]]) == [cert.z_star_cost, cert.best_good[1]]


def verify_certificate(cert: Certificate, metric_axioms_cap: int = 0) -> dict[str, bool]:
    """Run every per-game audit; all values must be True for a clean game.

    The transcript, the anchor and perm's degrees are read once and
    handed to each check that needs them.
    """
    entries, anchor, degree = _transcript_arrays(cert.transcript), _anchor_array(cert), _perm_degree(cert.perm)
    bad = _went_bad(degree, cert.cap)
    good = np.flatnonzero(~bad).tolist()  # empty when the cap marks every vertex bad
    checks = {
        "consistency": _replay_arrays(entries, cert.final_metric),
        "path_discipline": _path_discipline(cert, entries, anchor),
        "anchor_preserved": _anchor_preserved(cert, anchor),
        "bad_at_most_half": 2 * int(np.count_nonzero(bad)) <= cert.n,
        "perm_degree_cap": int(degree.max()) <= cert.cap + 2,
        "ball_growth": ball_growth_ok(cert),
        "best_good_matches": bool(good) and cert.final_metric.cheapest(good) == cert.best_good,
        "ratio_exact": _ratio_exact(cert),
    }
    if metric_axioms_cap and cert.n <= metric_axioms_cap:
        checks["metric_axioms"] = is_metric(cert.final_metric.to_table(metric_axioms_cap))
    return checks
