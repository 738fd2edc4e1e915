"""On-disk formats: triangular metric tables, JSON tables, edge lists.

Text metric table: line 1 holds n, then n lines of space-separated
integers give the lower triangle row by row including the diagonal, so
line i+1 carries d(i, 0) ... d(i, i).  Integer-valued metrics only.

JSON metric table: {"n": n, "dist": [[{"units": u, "eps_count": e},
...], ...]} with the full square matrix, for metrics that carry eps
components.

Edge list: one "u v" pair per line, vertices 1-based, blank lines and
'#' comments ignored.
"""

from __future__ import annotations

import json
from typing import Iterable

import numpy as np

from .metric import MetricTable

__all__ = [
    "read_metric_file",
    "write_metric_file",
    "read_metric_json",
    "write_metric_json",
    "read_edge_list",
    "write_edge_list",
    "load_metric_any",
]


def read_metric_file(path: str) -> MetricTable:
    with open(path, "r", encoding="utf-8") as fh:
        tokens_by_line = [line.split() for line in fh if line.strip()]
    if not tokens_by_line:
        raise ValueError(f"{path}: empty metric file")
    header = tokens_by_line[0]
    if len(header) != 1:
        raise ValueError(f"{path}: line 1 should hold n alone, found {len(header)} tokens")
    (n,) = _token_ints(path, header, ["n"])
    if len(tokens_by_line) != n + 1:
        raise ValueError(f"{path}: expected {n} rows, found {len(tokens_by_line) - 1}")
    units = np.zeros((n, n), dtype=np.int64)
    for i, row in enumerate(tokens_by_line[1:]):
        if len(row) != i + 1:
            raise ValueError(f"{path}: row {i} should hold {i + 1} entries, found {len(row)}")
        values = _token_ints(path, row, (f"entry ({i}, {j})" for j in range(i + 1)))
        units[i, : i + 1] = units[: i + 1, i] = values
    return MetricTable(units)


def write_metric_file(path: str, table: MetricTable) -> None:
    if table.has_eps():
        raise ValueError("triangular text format holds integer metrics only; use JSON")
    lines = [str(table.n)]
    for i in range(table.n):
        lines.append(" ".join(str(int(table.units[i, j])) for j in range(i + 1)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_metric_json(path: str, table: MetricTable) -> None:
    dist = [
        [
            {"units": int(table.units[i, j]), "eps_count": int(table.eps[i, j])}
            for j in range(table.n)
        ]
        for i in range(table.n)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": table.n, "dist": dist}, fh)
        fh.write("\n")


def _in_int64(value: int) -> bool:
    # tables store int64; every reader applies this one range rule
    return -(2**63) <= value < 2**63


def _json_int(path: str, value, what: str) -> int:
    # bool is an int subclass, and a float such as 1.5 must not be truncated
    if not isinstance(value, int) or isinstance(value, bool) or not _in_int64(value):
        raise ValueError(f"{path}: {what} must be a 64-bit integer, got {value!r}")
    return value


def _token_ints(path: str, tokens: list[str], names: Iterable[str]) -> list[int]:
    """Text tokens as 64-bit integers; on failure, name the first bad one."""
    try:
        values = [int(tok) for tok in tokens]
    except ValueError:
        values = None
    if values is None or not (_in_int64(min(values)) and _in_int64(max(values))):
        for tok, what in zip(tokens, names):
            try:
                value = int(tok)
            except ValueError:
                value = tok  # not an integer: _json_int rejects it by name
            _json_int(path, value, what)
    return values


def read_metric_json(path: str) -> MetricTable:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            blob = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None
    if not isinstance(blob, dict) or "n" not in blob or "dist" not in blob:
        raise ValueError(f'{path}: expected an object with "n" and "dist"')
    n = _json_int(path, blob["n"], "n")
    rows = blob["dist"]
    if not isinstance(rows, list) or len(rows) != n:
        raise ValueError(f"{path}: expected {n} rows")
    units = np.zeros((n, n), dtype=np.int64)
    eps = np.zeros((n, n), dtype=np.int64)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"{path}: row {i} should be a list of {n} entries")
        for j, cell in enumerate(row):
            if not isinstance(cell, dict) or "units" not in cell or "eps_count" not in cell:
                raise ValueError(
                    f'{path}: entry ({i}, {j}) should be {{"units": u, "eps_count": e}}, got {cell!r}'
                )
            units[i, j] = _json_int(path, cell["units"], f"units of entry ({i}, {j})")
            eps[i, j] = _json_int(path, cell["eps_count"], f"eps_count of entry ({i}, {j})")
    return MetricTable(units, eps)


def load_metric_any(path: str) -> MetricTable:
    """Dispatch on extension: .json goes to the JSON reader."""
    if path.endswith(".json"):
        return read_metric_json(path)
    return read_metric_file(path)


def read_edge_list(path: str) -> tuple[int, list[tuple[int, int]]]:
    """Read 1-based edges; returns (max vertex count, 0-based edge list)."""
    edges: list[tuple[int, int]] = []
    hi = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}: malformed edge line {raw!r}")
            u, v = _token_ints(path, parts, (f"vertex {k} of line {lineno}" for k in (1, 2)))
            if u < 1 or v < 1:
                raise ValueError(f"{path}: vertices are 1-based, got {raw!r}")
            hi = max(hi, u, v)
            edges.append((u - 1, v - 1))
    return hi, edges


def write_edge_list(path: str, edges: Iterable[tuple[int, int]], header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for u, v in edges:
            fh.write(f"{u + 1} {v + 1}\n")
