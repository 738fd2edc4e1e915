"""Workload definitions: items, generated inputs and independent output checks.

An item is one argv list for ``medianlab.cli.main``.  A run makes
passes over its workload's items; pass ``p`` of a run with seed ``s``
uses the pass seed ``s * 1000 + p``, so no two passes (and no two runs
with different seeds) hand the program the same game or sweep cell.
solve-file reads the same generated files in every pass, because
building them is set-up work, not the program's.

This module imports numpy and scipy only; it never imports medianlab,
so the checks below stay independent of the code they audit.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WORKLOADS = ("lowerbound-arena", "adversary-grid", "solve-sweep", "solve-file")

# sizes per scale; "toy" drives the same code paths in a few seconds
SCALES = {
    "full": {
        "arena_n": 8192,
        "grid_ns": (64, 256, 1024),
        "grid_seeds": 1,
        "sweep_n": 256,
        "file_n": 768,
    },
    "toy": {
        "arena_n": 256,
        "grid_ns": (16, 32),
        "grid_seeds": 1,
        "sweep_n": 24,
        "file_n": 40,
    },
}

WARMUP_FILE = "warmup-grid-16.txt"
FILE_KINDS = ("grid", "random-graph")
FILE_RUNS = (("exact", 1), ("exact", 4), ("pivot", 1), ("sampling", 1))
SWEEP_KINDS = ("grid", "random-graph", "star-path")
INNERS = ("exact", "pivot", "sampling")


@dataclass(frozen=True)
class Item:
    label: str  # argv with file paths cut to their basename; the golden-digest key
    argv: tuple[str, ...]


def pass_seed(seed: int, pass_idx: int) -> int:
    return seed * 1000 + pass_idx


def _item(*argv) -> Item:
    argv = tuple(str(a) for a in argv)
    label = " ".join(os.path.basename(a) if os.sep in a else a for a in argv)
    return Item(label, argv)


def warmup_items(inputs: dict) -> list[Item]:
    """One tiny call of every subcommand the workloads use."""
    return [
        _item("lowerbound", "--n", 64, "--seed", 0),
        _item("adversary", "--n", 24, "--q", 12, "--seed", 0),
        _item("sweep", "--kinds", "grid", "--sizes", 16, "--factors", 1, "--inners", "exact", "--seed", 0, "--out", "json"),
        _item("solve", "--metric", inputs["warmup"], "--f-of-n", 1),
    ]


def pass_items(workload: str, seed: int, pass_idx: int, scale: str, inputs: dict) -> list[Item]:
    sz = SCALES[scale]
    ps = pass_seed(seed, pass_idx)
    if workload == "lowerbound-arena":
        n = sz["arena_n"]
        # distinct seeds, so the two games share no anchor
        return [
            _item("lowerbound", "--n", n, "--algo", "exact", "--seed", 2 * ps),
            _item("lowerbound", "--n", n, "--algo", "random", "--seed", 2 * ps + 1),
        ]
    if workload == "adversary-grid":
        out = []
        for g in range(sz["grid_seeds"]):
            game_seed = sz["grid_seeds"] * ps + g
            for n in sz["grid_ns"]:
                for q in (n // 4, n, 4 * n):
                    for algo in ("exact", "pivot", "random"):
                        out.append(_item("adversary", "--n", n, "--q", q, "--algo", algo, "--seed", game_seed))
        return out
    if workload == "solve-sweep":
        n = sz["sweep_n"]
        return [
            _item("sweep", "--kinds", kind, "--sizes", n, "--factors", f, "--inners", inner, "--seed", ps, "--out", "json")
            for kind in SWEEP_KINDS
            for f in (1, 4, 16)
            for inner in INNERS
        ]
    if workload == "solve-file":
        return [
            _item("solve", "--metric", inputs[kind], "--inner", inner, "--f-of-n", f, "--seed", seed)
            for kind in FILE_KINDS
            for inner, f in FILE_RUNS
        ]
    raise ValueError(f"unknown workload {workload!r} (have {', '.join(WORKLOADS)})")


# -- generated inputs -------------------------------------------------------


def _grid_edges(n: int) -> list[tuple[int, int]]:
    cols = int(np.ceil(np.sqrt(n)))
    edges = []
    for v in range(n):
        if (v + 1) % cols and v + 1 < n:
            edges.append((v, v + 1))
        if v + cols < n:
            edges.append((v, v + cols))
    return edges


def _random_graph_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    while len(edges) < n - 1 + n // 3:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def hop_metric(n: int, edges: list[tuple[int, int]], rng: random.Random | None) -> np.ndarray:
    """All-pairs hop distances, points relabelled by a seeded permutation."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    e = np.asarray(edges, dtype=np.int64)
    adj = csr_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
    dist = shortest_path(adj, directed=False, unweighted=True)
    if not np.isfinite(dist).all():
        raise ValueError("generated graph is disconnected")
    units = dist.astype(np.int64)
    if rng is not None:
        perm = list(range(n))
        rng.shuffle(perm)
        units = units[np.ix_(perm, perm)]
    return units


def write_triangular(path: str, units: np.ndarray) -> None:
    """The documented text format: n, then row i holds d(i, 0) ... d(i, i)."""
    n = units.shape[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n}\n")
        for i in range(n):
            fh.write(" ".join(map(str, units[i, : i + 1].tolist())) + "\n")


def _write_metric(path: str, units: np.ndarray) -> None:
    write_triangular(path, units)
    np.save(path + ".npy", units)  # the checker's copy, never read by the program


def load_tables(inputs: dict) -> dict:
    return {path: np.load(path + ".npy") for path in inputs.values()}


def make_inputs(workload: str, seed: int, scale: str, out_dir: str) -> dict:
    """Write the metric files a run reads; returns their paths by role."""
    inputs = {"warmup": os.path.join(out_dir, WARMUP_FILE)}
    _write_metric(inputs["warmup"], hop_metric(16, _grid_edges(16), None))
    if workload == "solve-file":
        n = SCALES[scale]["file_n"]
        for kind in FILE_KINDS:
            rng = random.Random(f"{kind}-{n}-{seed}")
            edges = _grid_edges(n) if kind == "grid" else _random_graph_edges(n, rng)
            units = hop_metric(n, edges, rng)
            inputs[kind] = os.path.join(out_dir, f"{kind}-{n}-seed{seed}.txt")
            _write_metric(inputs[kind], units)
    return inputs


# -- independent checks -----------------------------------------------------


def _flag(name: str, argv: tuple[str, ...]) -> str:
    return argv[argv.index(name) + 1]


def check_output(item: Item, stdout: str, tables: dict) -> str | None:
    """Return None when the payload is right, else a one-line reason.

    These checks use only the item's arguments, the benchmark's own
    metric tables and arithmetic on the payload; the CLI's own audits
    gate through its exit status.
    """
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    argv = item.argv
    cmd = argv[0]
    if cmd == "sweep":
        if len(payload) != 1:
            return f"expected one sweep row, got {len(payload)}"
        row = payload[0]
        want = (_flag("--kinds", argv), int(_flag("--sizes", argv)), int(_flag("--factors", argv)), _flag("--inners", argv))
        if (row["kind"], row["n"], row["f_of_n"], row["inner"]) != want:
            return f"row describes another cell: {row}"
        if not row["bound_satisfied"] or row["output_cost"] < row["opt_cost"] or row["ratio"] > row["bound"]:
            return "row breaks the transfer bound"
        return None
    checks = payload.get("checks", {})
    if not checks or not all(checks.values()):
        return f"failed checks: {sorted(k for k, v in checks.items() if not v)}"
    if cmd == "adversary":
        n, q = int(_flag("--n", argv)), int(_flag("--q", argv))
        if (payload["n"], payload["q"], payload["rounds"]) != (n, q, n + q):
            return "wrong game size"
        if 2 * payload["bad_count"] > n:
            return "more than half the points went bad"
        if Fraction(payload["ratio_exact"]) != Fraction(payload["output_cost"], payload["best_good_cost"]):
            return "ratio does not match the reported costs"
        return None
    if cmd == "lowerbound":
        n = int(_flag("--n", argv))
        q = payload["q"]
        if payload["n"] != n or payload["m"] != 2 * q + 1:
            return "wrong arena size"
        if payload["queries_used"] > q or payload["names_used"] > 2 * q + 1:
            return "budget or naming window exceeded"
        return None
    if cmd == "solve":
        units = tables[_flag("--metric", argv)]
        costs = units.sum(axis=1)
        if payload["n"] != units.shape[0] or not 1 <= payload["output"] <= payload["n"]:
            return "output outside the space"
        if payload["output_cost"] != int(costs[payload["output"] - 1]):
            return "output cost differs from the table"
        if payload["opt_cost"] != int(costs.min()) or payload["opt"] != int(costs.argmin()) + 1:
            return "optimum differs from the table"
        if payload["queries"] > payload["query_bound"]:
            return "query budget exceeded"
        return None
    return f"no check for subcommand {cmd!r}"
