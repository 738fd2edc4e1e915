"""Instance generators, experiment sweeps, and audit helpers.

Everything here is deterministic in (kind, n, seed): generators use
their own random.Random instances and sweeps sort their rows, so two
runs with the same inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adversary import Adversary, Certificate, minimal_cap, verify_certificate
from .distances import eps_value
from .expander import _refuse_oversize, build_regular
from .metric import (
    CountingOracle,
    MetricTable,
    _as_pairs,
    _path_table,
    brute_force_cost,
    brute_force_median,
    graph_metric,
    sum_bound,
)
from .solvers import cost_ratio, make_inner, restrict_and_solve, subset_schedule, subset_size, transfer_bound

__all__ = [
    "INSTANCE_KINDS",
    "generate_instance",
    "ConstantBacking",
    "verify_nonadaptive",
    "SweepConfig",
    "sweep_upper_bound",
    "play_adversary_game",
    "rows_to_csv_text",
]

INSTANCE_KINDS = ("star-path", "random-graph", "grid", "table")


def _star_path_edges(n: int) -> list[tuple[int, int]]:
    if n <= 4:
        return [(i, i + 1) for i in range(n - 1)]
    k = (n + 1) // 2
    edges = [(i, i + 1) for i in range(k - 1)]
    edges.extend((0, leaf) for leaf in range(k, n))
    return edges


def _random_graph_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    for _ in range(n // 3):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def _grid_edges(n: int) -> list[tuple[int, int]]:
    rows = max(1, math.isqrt(n))
    cols = -(-n // rows)
    edges = []
    for v in range(n):
        r, c = divmod(v, cols)
        if c + 1 < cols and v + 1 < n and (v + 1) // cols == r:
            edges.append((v, v + 1))
        if (r + 1) * cols + c < n:
            edges.append((v, (r + 1) * cols + c))
    return edges


def _random_table(n: int, rng: random.Random) -> MetricTable:
    units = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            units[i, j] = units[j, i] = rng.randint(1, 9)
    # shortest-path closure turns arbitrary symmetric weights into a metric
    return MetricTable(_path_table(units))


def _require_instance(kind: str, n: int) -> None:
    """Refuse an instance before anything is built: no points, an unknown
    kind, or an n x n int64 table past physical memory."""
    if n < 1:
        raise ValueError("instances need at least one point")
    if kind not in INSTANCE_KINDS:
        raise ValueError(f"unknown instance kind {kind!r} (have {', '.join(INSTANCE_KINDS)})")
    _refuse_oversize(f"the {n} x {n} int64 table of a {kind} instance", 8 * n * n)


# the last (kind, n, seed) built and its table, or None
_last_instance: tuple[tuple, MetricTable] | None = None


def generate_instance(kind: str, n: int, seed: int = 0) -> MetricTable:
    """Build one deterministic test metric of the given family and size.

    The table's ``units`` and ``eps`` arrays are read-only; copy them
    before editing.  The process keeps the last table built: a repeat
    call with the same (kind, n, seed) returns that same object, so a
    sweep builds each instance once.  ``seed=None`` draws fresh entropy
    and is never kept.  The old table is let go before a new one is
    built, so no two are held at once, and a failed build keeps nothing.
    A table past physical memory is refused before anything is allocated.
    """
    global _last_instance
    _require_instance(kind, n)
    key, last = (kind, n, seed), _last_instance
    if seed is not None and last is not None and last[0] == key:
        return last[1]
    _last_instance = last = None
    if kind == "star-path":
        table = graph_metric(n, _star_path_edges(n))
    elif kind == "random-graph":
        table = graph_metric(n, _random_graph_edges(n, random.Random(seed)))
    elif kind == "grid":
        table = graph_metric(n, _grid_edges(n))
    else:
        table = _random_table(n, random.Random(seed))
    table.units.flags.writeable = table.eps.flags.writeable = False
    if seed is not None:
        _last_instance = (key, table)
    return table


@dataclass(frozen=True)
class ConstantBacking:
    """A backing that answers every pair, the diagonal too, with one constant.

    A constant outside 0..sum_bound(n), whose sums over n answers could
    wrap int64, is refused with ``ValueError``.
    """

    n: int
    answer: int = 1

    def __post_init__(self):
        bound = sum_bound(self.n)
        if not 0 <= self.answer <= bound:
            raise ValueError(
                f"answer {self.answer} must lie within 0..{bound} = (2**63 - 1) // {self.n}, "
                f"so that a sum of {self.n} answers cannot wrap 64 bits"
            )

    def distances(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        units = np.full(len(_as_pairs(a, b)[0]), self.answer, dtype=np.int64)
        return units, np.zeros_like(units)


def verify_nonadaptive(inner, s: int) -> bool:
    """Probe whether a solver's query sequence ignores the answers.

    Runs the solver twice against constant backings with different
    constants; both query sequences must exist, match each other, and
    match the schedule the solver publishes up front.
    """
    S = list(range(s))
    planned = inner.schedule(S)
    if planned is None:
        return False
    seqs = []
    for constant in (1, 3):
        oracle = CountingOracle(ConstantBacking(s, constant), record_transcript=True)
        inner.solve(oracle, S)
        seqs.append([(e.a, e.b) for e in oracle.transcript])
    return seqs[0] == seqs[1] == list(planned)


@dataclass(frozen=True)
class SweepConfig:
    """One cell of an upper-bound experiment grid."""

    kind: str
    n: int
    f_of_n: int
    inner: str
    seed: int = 0

    def key(self) -> tuple:
        return (self.kind, self.n, self.f_of_n, self.inner, self.seed)


def sweep_upper_bound(configs: Sequence[SweepConfig], brute_force_cap: int = 4096) -> list[dict]:
    """Run the subset pipeline over a grid and score each run against its bound.

    Rows come back sorted by config key, which puts the cells of one
    (kind, n) next to each other, so a one-seed sweep builds each
    instance once.  The bound comparison is exact (integer
    cross-multiplication through Fraction); the ratio columns are floats
    for display only.  Every config is checked before any instance is built.
    """
    configs = sorted(configs, key=SweepConfig.key)
    for cfg in configs:
        if cfg.n > brute_force_cap:
            raise ValueError(f"n={cfg.n} exceeds the brute-force cap {brute_force_cap}")
        _require_instance(cfg.kind, cfg.n)
    inners = [make_inner(cfg.inner, rng_seed=cfg.seed) for cfg in configs]
    rows = []
    for cfg, inner in zip(configs, inners):
        table = generate_instance(cfg.kind, cfg.n, cfg.seed)
        oracle = CountingOracle(table, record_transcript=False)
        result = restrict_and_solve(oracle, cfg.n, cfg.f_of_n, inner)

        s = subset_size(cfg.n, cfg.f_of_n)
        S = subset_schedule(cfg.n, s)
        eps = eps_value(cfg.n)
        opt_point, opt_cost = brute_force_median(table)
        out_cost = brute_force_cost(table, result.output)
        ratio = cost_ratio(out_cost, opt_cost, eps)

        if result.claimed_beta is not None:
            beta = result.claimed_beta
        else:
            _, sub_opt_cost = brute_force_median(table, S)
            beta = cost_ratio(brute_force_cost(table, result.output, S), sub_opt_cost, eps)
        bound = transfer_bound(beta, cfg.n, s)

        rows.append(
            {
                "kind": cfg.kind,
                "n": cfg.n,
                "f_of_n": cfg.f_of_n,
                "inner": cfg.inner,
                "seed": cfg.seed,
                "subset_size": s,
                "queries": result.queries_used,
                "output": result.output + 1,
                "output_cost": out_cost.units,
                "opt": opt_point + 1,
                "opt_cost": opt_cost.units,
                "ratio": float(ratio),
                "beta": float(beta),
                "bound": float(bound),
                "bound_satisfied": bool(ratio <= bound),
            }
        )
    return rows


def play_adversary_game(
    n: int,
    q: int,
    degree: int,
    player,
    seed: int = 0,
    cap: int | None = None,
    metric_axioms_cap: int = 512,
) -> tuple[Certificate, dict[str, bool]]:
    """Pit one query algorithm against the pruning adversary, then audit.

    The adversary is budgeted q + n rounds so its finalization padding
    always fits after the player's q queries.  An arena whose dense
    n x n bool ``perm`` exceeds physical memory is refused up front.
    """
    if q < 0:
        raise ValueError(f"query budget must be nonnegative, got {q}")
    _refuse_oversize(f"the dense {n} x {n} perm matrix of the arena", n * n)
    anchor = build_regular(n, degree, seed)
    rounds = q + n
    if cap is None:
        cap = minimal_cap(n, rounds, degree)
    adv = Adversary(anchor, rounds, cap)
    oracle = CountingOracle(adv, record_transcript=False)
    output = player.run(oracle, n)
    cert = adv.finalize(output)
    checks = verify_certificate(cert, metric_axioms_cap=metric_axioms_cap)
    return cert, checks


def rows_to_csv_text(rows: Sequence[dict]) -> str:
    """Dict rows as CSV text, the first row fixing the column order."""
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
