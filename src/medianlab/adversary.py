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

        self._adj = ~np.eye(n, dtype=bool)
        self._perm = anchor.adjacency().copy()
        self._perm_deg = np.full(n, degree, dtype=np.int64)
        exp = np.asarray(anchor.edges, dtype=np.int64)
        self._exp_u, self._exp_v = exp[:, 0], exp[:, 1]

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
        if not self._adj[self._exp_u, self._exp_v].all():
            raise AssertionError("anchor edge lost")
        return dist

    def _distance_and_path(self, a: int, b: int) -> tuple[int, list[int]]:
        if a == b:
            return 0, [a]
        adj = self._adj
        if adj[a, b]:
            return 1, [a, b]
        dist = bfs_hop_row(adj, a, target=b)
        if dist[b] < 0:
            raise AssertionError("adversary graph lost connectivity")
        # walk back choosing the lowest-index predecessor at every step;
        # any shortest path is valid, this one is deterministic
        path = [b]
        cur = b
        while cur != a:
            prev = np.nonzero(adj[:, cur] & (dist == dist[cur] - 1))[0]
            cur = int(prev[0])
            path.append(cur)
        path.reverse()
        return int(dist[b]), path

    def _mark_path(self, path: Sequence[int]) -> set[int]:
        touched: set[int] = set()
        for u, v in zip(path, path[1:]):
            if not self._adj[u, v]:
                raise AssertionError("reply path uses a missing edge")
            if not self._perm[u, v]:
                self._perm[u, v] = self._perm[v, u] = True
                self._perm_deg[u] += 1
                self._perm_deg[v] += 1
                touched.add(u)
                touched.add(v)
        return touched

    def _prune(self, touched: Iterable[int]) -> tuple[int, ...]:
        """Cut every non-permanent edge at each touched vertex now over the cap.

        A pruned vertex keeps only permanent edges, so it is never
        touched again and never pruned twice.
        """
        pruned = tuple(v for v in sorted(touched) if self._perm_deg[v] > self.cap)
        if pruned:
            idx = list(pruned)
            self._adj[idx] &= self._perm[idx]
            self._adj[:, idx] &= self._perm[:, idx]
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

        final = HopMetric(self._adj)
        bad = tuple(int(v) for v in np.nonzero(self._perm_deg >= self.cap)[0])
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
            perm=self._perm.copy(),
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
    """Everything needed to audit one finished game."""

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

    def snapshot_adjacency(self, i: int) -> np.ndarray:
        """Adjacency after round i (0 = before any query).

        The permanent edges plus a clique on the vertices not pruned by
        then.  Using the final ``perm`` is exact: an edge turns permanent
        only while both its ends are unpruned, so every later one lies
        inside that clique anyway.
        """
        if not (0 <= i <= len(self.pruned_log)):
            raise IndexError(f"round {i} out of range")
        alive = np.ones(self.n, dtype=bool)
        alive[[v for pruned in self.pruned_log[:i] for v in pruned]] = False
        adj = self.perm | np.outer(alive, alive)
        np.fill_diagonal(adj, False)
        return adj


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
    set must match the recorded one, and the final graph must be those
    edges plus a clique on the vertices never pruned.
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
    recorded = {
        _norm_edge(int(u), int(v))
        for u, v in np.argwhere(cert.perm)
        if u < v
    }
    if recorded != perm:
        return False
    # the log now matches the cap rule in every round, so its last
    # snapshot is the graph the final metric must be
    expected = cert.snapshot_adjacency(len(cert.pruned_log))
    return bool(np.array_equal(cert.final_metric.adjacency, expected))


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
    adj = cert.final_metric.adjacency
    return all(adj[u, v] for u, v in cert.anchor_edges)


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
        "ratio_exact": cert.ratio == Fraction(cert.z_star_cost, cert.best_good[1]),
    }
    if metric_axioms_cap and cert.n <= metric_axioms_cap:
        checks["metric_axioms"] = is_metric(cert.final_metric.to_table(metric_axioms_cap))
    return checks
