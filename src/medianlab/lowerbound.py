"""Hard instances for budgeted median selection on huge spaces.

A q-query algorithm can only ever touch 2q+1 distinct points (two per
query, one more for its output).  The renaming wrapper below exploits
that: it intercepts an algorithm aimed at an n-point space and maps
each point to a fresh small name on first sight, so the whole game fits
inside a (2q+1)-point adversary no matter how large n is.  Afterwards
the adversary's final hop metric is blown back up to n points by gluing
the unseen points onto the best good point y as near-copies: each
stands in for y, at eps = 1/2**n from y and from each other.  That
leaves every answer the algorithm received intact while making its
output point expensive by comparison.

The measured quantity is cost(output) / cost(best good point) on the
glued space, reported exactly as a Fraction.  It grows with n for a
fixed query budget, which is the whole point of the construction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# perfbench/tracer.py wraps lowerbound.build_regular and .verify_certificate by name, so the bindings stay
from .adversary import Certificate, verify_certificate  # noqa: F401
from .distances import ExactDistance, eps_float, eps_value
from .expander import InfeasibleError, _refuse_oversize, build_regular  # noqa: F401
from .harness import play_adversary_game
from .metric import HopMetric, MetricTable, TranscriptEntry, _as_pairs_in, _single, is_metric, replay_verify

__all__ = [
    "BudgetExceededError",
    "Renaming",
    "RenamedRun",
    "run_renamed",
    "GluedMetric",
    "glue_metric",
    "GameReport",
    "hard_instance_game",
]

_GAME_POINT_BYTES = 62  # a game's largest ru_maxrss rise per point: four players, n = 10**6 and 10**7, q = 10


class BudgetExceededError(RuntimeError):
    """The wrapped algorithm tried to spend more queries than its budget."""


class Renaming:
    """First-sight renaming of points onto the prefix 0, 1, 2, ..."""

    def __init__(self) -> None:
        self._names: dict[int, int] = {}

    def assign(self, point: int) -> int:
        name = self._names.get(point)
        if name is None:
            name = len(self._names)
            self._names[point] = name
        return name

    @property
    def count(self) -> int:
        return len(self._names)

    @property
    def mapping(self) -> dict[int, int]:
        return dict(self._names)


@dataclass
class RenamedRun:
    output: int  # the algorithm's answer, in its own coordinates
    output_name: int  # the same answer after renaming
    renaming: Renaming
    inner_transcript: list[TranscriptEntry]  # in the algorithm's coordinates

    @property
    def queries_used(self) -> int:
        return len(self.inner_transcript)


class _RenamingProxy:
    """Oracle facade handed to the wrapped algorithm."""

    def __init__(self, oracle, n: int, budget: int, run: RenamedRun):
        self._oracle = oracle
        self.n = n
        self._budget = budget
        self._run = run

    @property
    def queries_made(self) -> int:
        return self._run.queries_used

    def query(self, a: int, b: int) -> ExactDistance:
        if self._run.queries_used >= self._budget:
            raise BudgetExceededError(f"budget of {self._budget} queries exhausted")
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise IndexError(f"query ({a}, {b}) outside space of size {self.n}")
        ren = self._run.renaming
        na = ren.assign(a)
        nb = ren.assign(b)
        answer = self._oracle.query(na, nb)
        self._run.inner_transcript.append(TranscriptEntry(a, b, answer))
        return answer

    def query_many(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        """Ask the pairs (a[k], b[k]) in order, one :meth:`query` each.

        A batch past the budget or with a point outside 0..n-1 raises
        before any name is given or any pair is asked.  Names are given
        at first sight, a before b, pair by pair.  perfbench/tracer.py
        times the renamed game through ``query``, ``CountingOracle.query``
        and ``Adversary.answer`` by name, so the pairs go one at a time.
        """
        if self._run.queries_used + len(a) > self._budget:
            raise BudgetExceededError(f"budget of {self._budget} queries exhausted")
        a, b = _as_pairs_in(a, b, self.n)
        answers = [self.query(x, y) for x, y in zip(a.tolist(), b.tolist())]
        return (
            np.array([d.units for d in answers], dtype=np.int64),
            np.array([d.eps_count for d in answers], dtype=np.int64),
        )


def run_renamed(algorithm, oracle, n: int, budget: int) -> RenamedRun:
    """Run an algorithm meant for an n-point space through the renamer.

    The algorithm believes it plays on n points; the oracle only ever
    sees names below 2*budget+1.  The output gets a name too (fresh if
    the algorithm returns a point it never queried).  An oracle with
    fewer than 2*budget+1 points, which could not hold every name, is
    refused with ``ValueError`` before any query is served.
    """
    names = 2 * budget + 1
    if oracle.n < names:
        raise ValueError(
            f"an oracle of {oracle.n} points cannot hold the {names} names a budget of {budget} may give"
        )
    run = RenamedRun(-1, -1, Renaming(), [])
    proxy = _RenamingProxy(oracle, n, budget, run)
    output = algorithm.run(proxy, n)
    if not (0 <= output < n):
        raise IndexError(f"algorithm returned {output}, outside the space")
    run.output = output
    run.output_name = run.renaming.assign(output)
    return run


class GluedMetric:
    """The arena's m-point metric with n-m+1 points fused at eps around one of them.

    Every artificial point m, ..., n-1 stands in for the base point y.
    Two points sit at the base distance of their stand-ins, plus
    eps = 1/2**n when they are distinct and share one, so y and the
    artificial points form a cluster at mutual distance eps.
    :meth:`distances` states that rule, :meth:`cost_of` reads it and
    :meth:`to_table` applies it to the base table.  A point outside
    0..n-1 raises ``IndexError``, a base other than a :class:`HopMetric`
    ``TypeError``.  An answer is a hop count below m plus
    at most one eps, so a cost, n answers, sums exactly in int64: refusing m**2
    and n*_GAME_POINT_BYTES bytes past physical memory keeps n*m < 2**63 below 60 TiB.
    """

    def __init__(self, base: HopMetric, y: int, n: int):
        if not isinstance(base, HopMetric):
            raise TypeError(f"the glue takes the arena's HopMetric, got {type(base).__name__}")
        m = base.n
        if not (0 <= y < m):
            raise ValueError(f"gluing point {y} outside the base space")
        if n <= m:
            raise ValueError("the glued space must be strictly larger than the base")
        # lexicographic (units, eps_count) comparisons stay faithful while
        # every sum keeps its eps count below 2**n; costs sum at most n of them,
        # and 2*n < 2**n holds from n = 3 on, so 2**n itself is never built
        if n < 3:
            raise ValueError("space too small for the eps regime")
        self.base = base
        self.y = y
        self.n = n
        self.m = m

    def distances(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        """The pairs (a[k], b[k]) as int64 (units, eps) arrays, one base batch."""
        a, b = _as_pairs_in(a, b, self.n)
        stand_a = np.where(a < self.m, a, self.y)
        stand_b = np.where(b < self.m, b, self.y)
        units, eps = self.base.distances(stand_a, stand_b)
        return units, eps + ((stand_a == stand_b) & (a != b))

    # perfbench/tracer.py wraps distance by name, so the one-pair form stays
    def distance(self, a: int, b: int) -> ExactDistance:
        return _single(self.distances([a], [b]))

    def cost_of(self, p: int) -> ExactDistance:
        """Total glued distance from p to the whole n-point space, an exact int64 batch sum."""
        units, eps = self.distances(np.full(self.n, p), np.arange(self.n))
        return ExactDistance(int(units.sum()), int(eps.sum()))

    def to_table(self, cap: int = 4096) -> MetricTable:
        """The whole table: the base table read at the stand-ins, plus eps
        between two distinct points that share one."""
        if self.n > cap:
            raise ValueError(f"refusing to materialize {self.n}x{self.n} table (cap {cap})")
        stand = np.arange(self.n)
        stand[self.m :] = self.y
        eps = stand[:, None] == stand
        np.fill_diagonal(eps, False)
        return MetricTable(self.base.to_table(cap).units[np.ix_(stand, stand)], eps)


# perfbench/tracer.py wraps glue_metric by name, so the wrapper stays
def glue_metric(base: HopMetric, y: int, n: int) -> GluedMetric:
    return GluedMetric(base, y, n)


@dataclass
class GameReport:
    """Outcome and audit trail of one hard-instance game; its counts and ratios are views of its records."""

    n: int
    q: int
    seed: int
    algorithm: str
    run: RenamedRun = field(repr=False)
    glued_cost_z: ExactDistance
    glued_cost_y: ExactDistance
    certificate: Certificate = field(repr=False)
    checks: dict[str, bool] = field(default_factory=dict)

    @property
    def queries_used(self) -> int:
        return self.run.queries_used

    @property
    def names_used(self) -> int:
        return self.run.renaming.count

    @property
    def ratio(self) -> Fraction:
        eps = eps_value(self.n)
        return self.glued_cost_z.to_fraction(eps) / self.glued_cost_y.to_fraction(eps)

    @property
    def ratio_float(self) -> float:
        eps = eps_float(self.n)
        return self.glued_cost_z.approx_float(eps) / self.glued_cost_y.approx_float(eps)

    @property
    def f_hat(self) -> float:
        return self.ratio_float / math.log2(self.n)

    @property
    def all_ok(self) -> bool:
        return all(self.checks.values())

    def to_json_dict(self) -> dict:
        cert = self.certificate
        return {
            "n": self.n,
            "q": self.q,
            "m": cert.n,
            "degree": cert.degree,
            "cap": cert.cap,
            "seed": self.seed,
            "algorithm": self.algorithm,
            "queries_used": self.queries_used,
            "names_used": self.names_used,
            "z_star": cert.z_star + 1,
            "best_good": cert.best_good[0] + 1,
            "dist_z_y": _dist_z_y(cert),
            "glued_cost_z": {"units": self.glued_cost_z.units, "eps_count": self.glued_cost_z.eps_count},
            "glued_cost_y": {"units": self.glued_cost_y.units, "eps_count": self.glued_cost_y.eps_count},
            "ratio": self.ratio_float,
            "ratio_exact": _fraction_text(self.ratio),
            "f_hat": self.f_hat,
            "checks": dict(sorted(self.checks.items())),
        }


def _dist_z_y(cert: Certificate) -> int:
    """d(z*, y) on the arena, from z*'s row, which finalize already computed."""
    return int(cert.final_metric.row(cert.z_star)[cert.best_good[0]])


def _fraction_text(value: Fraction) -> str:
    """Exact "num/den" in decimal, past the interpreter's int->str digit limit.

    The denominator carries 2**n, which outgrows the default 4300-digit
    limit from n = 16384 on; the limit is restored before returning.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return f"{value.numerator}/{value.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)


class _RenamedPlayer:
    """Plays an algorithm meant for n points on the arena, through the renamer."""

    def __init__(self, algorithm, n: int, budget: int):
        self.algorithm = algorithm
        self.name = getattr(algorithm, "name", type(algorithm).__name__)
        self.n = n
        self.budget = budget
        self.renamed: RenamedRun | None = None

    def run(self, oracle, m: int) -> int:
        self.renamed = run_renamed(self.algorithm, oracle, self.n, self.budget)
        return self.renamed.output_name


def hard_instance_game(
    algorithm,
    n: int,
    q: int,
    degree: int = 8,
    seed: int = 0,
    metric_axioms_cap: int = 512,
) -> GameReport:
    """Play one full lower-bound game and audit every step.

    The game is :func:`play_adversary_game` on an arena of m = 2q+1
    points, budgeted q + m rounds so the padding fits after the q
    queries, with ``algorithm`` playing through the renamer.  The
    arena's final metric is then glued up to n points.  Needs 2q+1 < n
    and an even degree (m is odd); n * _GAME_POINT_BYTES past physical
    memory is refused before the game starts.
    """
    if q < 1:
        raise ValueError("the game needs a positive query budget")
    m = 2 * q + 1
    if degree % 2:
        raise InfeasibleError(
            f"degree {degree} is odd and the arena's 2q+1 = {m} points are odd, "
            f"so no {degree}-regular anchor exists; pick an even degree"
        )
    if m >= n:
        raise ValueError(f"need n > 2q+1 = {m} so the glued cluster is nonempty")
    _refuse_oversize(f"a glued space of {n} points", n * _GAME_POINT_BYTES)
    player = _RenamedPlayer(algorithm, n, q)
    cert, checks = play_adversary_game(m, q, degree, player, seed=seed, metric_axioms_cap=0)

    z, y = cert.z_star, cert.best_good[0]
    glued = glue_metric(cert.final_metric, y, n)
    report = GameReport(
        n=n,
        q=q,
        seed=seed,
        algorithm=player.name,
        run=player.renamed,
        glued_cost_z=glued.cost_of(z),
        glued_cost_y=glued.cost_of(y),
        certificate=cert,
        checks=checks,
    )
    report.checks.update(_game_checks(report, glued))
    if n <= metric_axioms_cap:
        report.checks["glued_metric_axioms"] = is_metric(glued.to_table(metric_axioms_cap))
    return report


def _game_checks(report: GameReport, glued: GluedMetric) -> dict[str, bool]:
    """Audit the renaming and the glued costs the report states."""
    cert, run = report.certificate, report.run
    fwd = run.renaming.mapping
    names = list(fwd.values())
    out: dict[str, bool] = {}
    out["renaming_injective"] = len(set(names)) == len(names)
    out["names_in_window"] = run.renaming.count <= 2 * report.q + 1 and all(0 <= v < cert.n for v in names)
    out["budget_respected"] = run.queries_used <= report.q
    # the algorithm's queries, renamed, are the adversary's first rounds: read from the adversary's
    # own transcript, not a list the proxy keeps, so a proxy that forwards the wrong pair fails
    renamed = [TranscriptEntry(fwd.get(a), fwd.get(b), answer) for a, b, answer in run.inner_transcript]
    out["transcripts_aligned"] = renamed == cert.transcript[: len(renamed)]
    out["replay_glued"] = replay_verify(cert.transcript, glued)
    z, (y, base_y) = cert.z_star, cert.best_good
    dzy = _dist_z_y(cert)
    spread = glued.n - glued.m
    # base costs are the certificate's, which ratio_exact recounts on the hub graph;
    # z* = y sees the other spread cluster members at eps
    out["cost_split_z"] = report.glued_cost_z == ExactDistance(
        cert.z_star_cost + spread * dzy, spread if z == y else 0
    )
    out["cost_split_y"] = report.glued_cost_y == ExactDistance(base_y, spread)
    # the advertised floor on the measured ratio, checked exactly
    floor = Fraction(spread * dzy) / (Fraction(base_y) + max(spread - 1, 0) * eps_value(glued.n))
    out["ratio_floor"] = report.ratio >= floor
    return out
