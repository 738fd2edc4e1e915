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
a vertex is pruned: ``answer`` keeps the last source's full hop row and
reuses it until the next prune.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse.csgraph

from .distances import ExactDistance
from .metric import HopMetric, TranscriptEntry, bfs_hop_row, is_metric, replay_verify
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
    "good_point_bound",
    "ball_growth_ok",
    "verify_certificate",
]

Edge = tuple[int, int]


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


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


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
        # strict inequality, checked exactly: C*n > 2*d*n + 4*rounds
        if cap * n <= 2 * degree * n + 4 * rounds:
            raise BadConstantError(
                f"cap {cap} must exceed 2*{degree} + 4*{rounds}/{n} = "
                f"{Fraction(2 * degree * n + 4 * rounds, n)}"
            )
        self.n = n
        self.rounds = rounds
        self.degree = degree
        self.cap = cap
        self.anchor = anchor

        exp = np.asarray(anchor.edges, dtype=np.int64)
        u, v = exp[:, 0], exp[:, 1]
        self._perm = np.zeros((n, n), dtype=bool)
        self._perm[u, v] = self._perm[v, u] = True
        self._anchor_flat = u * n + v  # anchor cells of perm, flattened
        self._alive = np.ones(n, dtype=bool)
        # (source, full hop row) of the last answer BFS; exact until a prune
        self._hop_row: tuple[int, np.ndarray] | None = None

        self.transcript: list[TranscriptEntry] = []
        self.paths: list[tuple[int, ...]] = []
        self.pruned_log: list[tuple[int, ...]] = []
        self.rounds_served = 0

    # -- backing interface, so a CountingOracle can front the game -----

    def distance(self, a: int, b: int) -> ExactDistance:
        return ExactDistance(self.answer(a, b))

    # -- play ----------------------------------------------------------

    def answer(self, a: int, b: int) -> int:
        """Serve one round: answer, mark the reply path, prune."""
        if self.rounds_served >= self.rounds:
            raise BudgetExhaustedError(f"all {self.rounds} rounds already served")
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise IndexError(f"query ({a}, {b}) outside space of size {self.n}")
        dist, path = self._distance_and_path(a, b)
        touched = self._mark_path(path)
        self.paths.append(tuple(path))
        self.pruned_log.append(self._prune(touched))
        self.transcript.append(TranscriptEntry(a, b, ExactDistance(dist)))
        self.rounds_served += 1
        if not self._perm.take(self._anchor_flat).all():
            raise AssertionError("anchor edge lost")
        return dist

    def _distance_and_path(self, a: int, b: int) -> tuple[int, list[int]]:
        if a == b:
            return 0, [a]
        perm, alive = self._perm, self._alive
        if (alive[a] and alive[b]) or perm[a, b]:
            return 1, [a, b]
        if self._hop_row is not None and self._hop_row[0] == a:
            dist = self._hop_row[1]
        else:
            dist = bfs_hop_row(perm, a, clique=alive)
            self._hop_row = (a, dist)
        if dist[b] < 0:
            raise AssertionError("adversary graph lost connectivity")
        # walk back choosing the lowest-index predecessor at every step;
        # any shortest path is valid, this one is deterministic.  An
        # alive vertex also neighbours every other alive vertex, and a
        # is the only vertex at level 0.
        path = [b]
        cur = b
        while dist[cur] > 1:
            row = perm[cur] | alive if alive[cur] else perm[cur]
            cur = int(np.flatnonzero(row & (dist == dist[cur] - 1))[0])
            path.append(cur)
        path.append(a)
        path.reverse()
        return int(dist[b]), path

    def _mark_path(self, path: Sequence[int]) -> set[int]:
        perm, alive = self._perm, self._alive
        touched: set[int] = set()
        for u, v in zip(path, path[1:]):
            if perm[u, v]:
                continue
            if not (alive[u] and alive[v]):
                raise AssertionError("reply path uses a missing edge")
            perm[u, v] = perm[v, u] = True
            touched.add(u)
            touched.add(v)
        return touched

    def _prune(self, touched: Iterable[int]) -> tuple[int, ...]:
        """Prune each touched vertex whose permanent degree is now over the cap.

        A pruned vertex leaves the alive clique and keeps only its
        permanent edges, so it is never touched again and never pruned
        twice.
        """
        pruned = tuple(v for v in sorted(touched) if np.count_nonzero(self._perm[v]) > self.cap)
        if pruned:
            self._alive[list(pruned)] = False
            self._hop_row = None  # the live graph just lost edges
        return pruned

    # -- settle --------------------------------------------------------

    def finalize(self, output: int) -> "Certificate":
        """Pad to the full budget, freeze the metric, and grade the output.

        Padding first queries (output, x) for every point x, then
        repeats (output, output+1 mod n) until exactly ``rounds`` rounds
        have been served.
        """
        if not (0 <= output < self.n):
            raise IndexError(f"output {output} outside space of size {self.n}")
        if self.rounds_served + self.n > self.rounds:
            raise PadOverflowError(
                f"{self.rounds - self.rounds_served} rounds left, "
                f"padding needs {self.n}; configure rounds >= queries + n"
            )
        for x in range(self.n):
            self.answer(output, x)
        filler = (output + 1) % self.n
        while self.rounds_served < self.rounds:
            self.answer(output, filler)

        # no copies: every later answer raises BudgetExhaustedError
        final = HopMetric(self._perm, self._alive)
        bad = tuple(int(v) for v in np.nonzero(self._perm.sum(axis=1) >= self.cap)[0])
        good = sorted(set(range(self.n)) - set(bad))
        if not good:
            raise AssertionError("fewer than half the points may go bad")
        z_cost = final.cost_of(output)
        y, y_cost = final.cheapest(good)
        return Certificate(
            n=self.n,
            rounds=self.rounds,
            degree=self.degree,
            cap=self.cap,
            final_metric=final,
            perm=self._perm,
            anchor_edges=self.anchor.edges,
            paths=tuple(self.paths),
            pruned_log=tuple(self.pruned_log),
            transcript=self.transcript,
            bad=bad,
            z_star=output,
            z_star_cost=z_cost,
            best_good=(y, y_cost),
            ratio=Fraction(z_cost, y_cost),
        )


@dataclass
class Certificate:
    """Everything needed to audit one finished game.

    ``final_metric`` walks ``perm`` itself plus a clique on the vertices
    never pruned, so a finished game holds one m x m matrix.
    """

    n: int
    rounds: int
    degree: int
    cap: int
    final_metric: HopMetric
    perm: np.ndarray
    anchor_edges: tuple[Edge, ...]
    paths: tuple[tuple[int, ...], ...]
    pruned_log: tuple[tuple[int, ...], ...]
    transcript: list[TranscriptEntry]
    bad: tuple[int, ...]
    z_star: int
    z_star_cost: int
    best_good: tuple[int, int]
    ratio: Fraction

    @property
    def max_perm_degree(self) -> int:
        return int(self.perm.sum(axis=1).max())

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


def verify_consistency(cert: Certificate, transcript: list[TranscriptEntry] | None = None) -> bool:
    """Every answer ever given equals the final metric's distance."""
    return replay_verify(cert.transcript if transcript is None else transcript, cert.final_metric)


def verify_path_discipline(cert: Certificate) -> bool:
    """Re-derive the permanence timeline and the pruning from the reply paths.

    Checks, per round: the reply path contained at most one edge that
    was not yet permanent when it was picked, that edge did not touch a
    pruned vertex, at most two of the path's edges touch any one vertex,
    and the round pruned exactly the vertices whose permanent degree
    first exceeded the cap in it.  The recomputed final permanent edge
    set must match the recorded one, and the final metric must walk
    those edges plus a clique on the vertices never pruned.
    """
    if len(cert.pruned_log) != len(cert.paths):
        return False
    perm: set[Edge] = set(cert.anchor_edges)
    degree = [0] * cert.n
    for u, v in perm:
        degree[u] += 1
        degree[v] += 1
    pruned_so_far: set[int] = set()
    for path, pruned in zip(cert.paths, cert.pruned_log):
        edges = [_norm_edge(u, v) for u, v in zip(path, path[1:])]
        if len(edges) != len(set(edges)):
            return False  # reply paths are simple
        fresh = [e for e in edges if e not in perm]
        if len(fresh) > 1:
            return False
        per_vertex: dict[int, int] = {}
        for u, v in edges:
            per_vertex[u] = per_vertex.get(u, 0) + 1
            per_vertex[v] = per_vertex.get(v, 0) + 1
        if per_vertex and max(per_vertex.values()) > 2:
            return False
        for u, v in fresh:
            if u in pruned_so_far or v in pruned_so_far:
                return False  # pruning cut every flexible edge at a pruned vertex
            degree[u] += 1
            degree[v] += 1
        due = sorted({v for e in fresh for v in e if degree[v] > cert.cap})
        if list(pruned) != due:
            return False
        pruned_so_far.update(due)
        perm.update(edges)
    us, vs = np.nonzero(np.triu(cert.perm, 1))
    if set(zip(us.tolist(), vs.tolist())) != perm:
        return False
    # the log now matches the cap rule in every round, so the final
    # metric must be the recorded edges plus the clique it never pruned
    final = cert.final_metric
    return bool(
        np.array_equal(final.adjacency, cert.perm)
        and np.array_equal(final.clique, cert.alive_after(len(cert.pruned_log)))
    )


def good_point_bound(cert: Certificate) -> tuple[int, int]:
    """Recompute the cheapest point that never went bad."""
    good = sorted(set(range(cert.n)) - set(cert.bad))
    if not good:
        raise ValueError("no good points to choose from")
    return cert.final_metric.cheapest(good)


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


def _anchor_preserved(cert: Certificate) -> bool:
    """Every anchor edge is a permanent edge of the final metric."""
    edges = np.asarray(cert.anchor_edges, dtype=np.int64).reshape(-1, 2)
    return bool(cert.final_metric.adjacency[edges[:, 0], edges[:, 1]].all())


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
    us, vs = np.nonzero(cert.perm)
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
    """cost(z*), cost(y) and their ratio equal the hub graph's, exactly."""
    costs = _hub_costs(cert, [cert.z_star, cert.best_good[0]])
    if costs is None or costs != [cert.z_star_cost, cert.best_good[1]]:
        return False
    return cert.ratio == Fraction(*costs)


def verify_certificate(cert: Certificate, metric_axioms_cap: int = 0) -> dict[str, bool]:
    """Run every per-game audit; all values must be True for a clean game."""
    y, y_cost = good_point_bound(cert)
    checks = {
        "consistency": verify_consistency(cert),
        "path_discipline": verify_path_discipline(cert),
        "anchor_preserved": _anchor_preserved(cert),
        "bad_at_most_half": 2 * len(cert.bad) <= cert.n,
        "perm_degree_cap": cert.max_perm_degree <= cert.cap + 2,
        "ball_growth": ball_growth_ok(cert),
        "best_good_matches": (y, y_cost) == cert.best_good,
        "ratio_exact": _ratio_exact(cert),
    }
    if metric_axioms_cap and cert.n <= metric_axioms_cap:
        checks["metric_axioms"] = is_metric(cert.final_metric.to_table(metric_axioms_cap))
    return checks
