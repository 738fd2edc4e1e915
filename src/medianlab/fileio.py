"""On-disk formats: triangular metric tables, JSON tables, edge lists.

Text metric table: line 1 holds n, then n lines of space-separated
integers give the lower triangle row by row including the diagonal, so
line i+1 carries d(i, 0) ... d(i, i).  Integer-valued metrics only.
The reader takes LF, CRLF or CR line ends, skips blank lines and lets
spaces or tabs separate entries.  A file of nothing but digits, blanks
and line ends, with tokens of at most 18 digits, is read in one numpy
pass: a scan for digit runs yields the per-line token counts and, by
Horner's rule over the runs' digit columns, the values.  Any other file
goes through a line-by-line walk, which words every error.

JSON metric table: {"n": n, "dist": [[{"units": u, "eps_count": e},
...], ...]} with the full square matrix, for metrics that carry eps
components.

Both metric readers reject any entry (units or eps count) whose
absolute value exceeds (2**63 - 1) // n.  Then any sum of n entries
fits in int64, every row sum and pair sum included, so the exact sums
of the axiom check and the brute-force medians never wrap.

Edge list: an optional '#' header line, then one "u v" pair per line,
vertices 1-based.  Edge lists are written (``expander --edges-out``)
and never read.
"""

from __future__ import annotations

import json
from typing import Iterable

import numpy as np

from .metric import MetricTable, sum_bound

__all__ = [
    "read_metric_file",
    "write_metric_file",
    "read_metric_json",
    "write_metric_json",
    "write_edge_list",
    "load_metric_any",
]


def read_metric_file(path: str) -> MetricTable:
    with open(path, "rb") as fh:
        plain = _read_plain_metric(fh.read())
    if plain is None:
        return _read_metric_walk(path)
    # the file's bytes and the scan's arrays are freed before the table is sized
    return MetricTable(_symmetric(*plain))


# On a file of these bytes alone, the walk's split() and int() agree with
# a byte scan, and the file decodes as the walk reads it.
_PLAIN_BYTES = b"0123456789 \t\r\n"
# Horner's rule is exact in int64 for tokens this short: 10**18 - 1 < 2**63.
_PLAIN_DIGITS = 18
# Horner's rule reads this many tokens at a time, so its temporaries stay in cache
_CHUNK = 1 << 16
# the fill mirrors this many rows at a time, so its reads and writes stay in cache
_ROWS = 64


def _read_plain_metric(data: bytes) -> tuple[int, np.ndarray] | None:
    """n and the lower triangle, row by row, of a plain text file, else None.

    A plain file holds only digits, spaces, tabs and line ends; its
    first nonblank line is the one token n, then n nonblank lines follow
    and line i holds i+1 tokens of at most 18 digits, none above
    sum_bound(n).  One scan finds the digit runs: their starts give the
    per-line token counts, and Horner's rule over their digit columns
    gives their values.  The walk reads such a file into the same
    table; any other file is left to the walk, which words every error.
    """
    if data.translate(None, _PLAIN_BYTES):
        return None
    chars = np.frombuffer(data, dtype=np.uint8)
    # tabs and line ends are the bytes below a space; a CRLF counts as two
    # breaks around an empty line, and empty lines are skipped
    breaks = np.flatnonzero(chars < ord(" "))
    breaks = np.append(breaks[chars[breaks] != ord("\t")], chars.size)
    # a run starts or ends where a byte and its left neighbour differ in
    # kind; a blank pad at each end closes the first and the last run
    digit = np.zeros(chars.size + 2, dtype=bool)
    np.greater_equal(chars, ord("0"), out=digit[1:-1])  # every other byte left is a blank or a line end
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    del digit
    starts, ends = bounds[0::2], bounds[1::2]
    if not starts.size:
        return None
    per_line = np.diff(np.searchsorted(starts, breaks), prepend=0)
    per_line = per_line[per_line > 0]
    # n is the row count, bounded by the file size; the header must match it
    n = per_line.size - 1
    if per_line[0] != 1 or not np.array_equal(per_line[1:], np.arange(1, n + 1)):
        return None
    values = np.empty(starts.size, dtype=np.int64)
    for lo in range(0, starts.size, _CHUNK):
        first = starts[lo : lo + _CHUNK]
        width = ends[lo : lo + _CHUNK] - first
        columns = int(width.max())
        if columns > _PLAIN_DIGITS:
            return None
        chunk = values[lo : lo + _CHUNK]
        np.subtract(chars[first], ord("0"), out=chunk, dtype=np.int64)
        # column k reads digit k of the tokens longer than k, at pos
        live = np.flatnonzero(width > 1)
        pos = first[live]
        for k in range(1, columns):
            if k > 1:
                keep = width[live] > k
                live, pos = live[keep], pos[keep]
            pos += 1
            chunk[live] = chunk[live] * 10 + chars[pos] - ord("0")
    lower = values[1:]
    if values[0] != n or (lower.size and lower.max() > sum_bound(n)):
        return None
    return n, lower


def _symmetric(n: int, lower: np.ndarray) -> np.ndarray:
    """The n x n table whose lower triangle, row by row, holds ``lower``."""
    units = np.zeros((n, n), dtype=np.int64)
    for i in range(0, n, _ROWS):
        j = min(i + _ROWS, n)
        # rows i..j-1 up to the diagonal: a boolean mask fills in row-major order
        units[i:j, :j][np.tri(j - i, j, i, dtype=bool)] = lower[i * (i + 1) // 2 : j * (j + 1) // 2]
        # their mirror image is the block column above them
        units[:i, i:j] = units[i:j, :i].T
        square = units[i:j, i:j]
        square += np.triu(square.T, 1)
    return units


def _read_metric_walk(path: str) -> MetricTable:
    """Line-by-line reader for any text file: the one that words each error."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens_by_line = [line.split() for line in fh if line.strip()]
    if not tokens_by_line:
        raise ValueError(f"{path}: empty metric file")
    header = tokens_by_line[0]
    if len(header) != 1:
        raise ValueError(f"{path}: line 1 should hold n alone, found {len(header)} tokens")
    (n,) = _token_ints(path, header, ["n"])
    _check_n(path, n)
    if len(tokens_by_line) != n + 1:
        raise ValueError(f"{path}: expected {n} rows, found {len(tokens_by_line) - 1}")
    units = np.zeros((n, n), dtype=np.int64)
    for i, row in enumerate(tokens_by_line[1:]):
        if len(row) != i + 1:
            raise ValueError(f"{path}: row {i} should hold {i + 1} entries, found {len(row)}")
        values = _token_ints(path, row, (f"entry ({i}, {j})" for j in range(i + 1)), n)
        units[i, : i + 1] = units[: i + 1, i] = values
    return MetricTable(units)


def write_metric_file(path: str, table: MetricTable) -> None:
    if table.has_eps():
        raise ValueError("triangular text format holds integer metrics only; use JSON")
    lines = [str(table.n)]
    for i in range(table.n):
        lines.append(" ".join(map(str, table.units[i, : i + 1].tolist())))
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


def _check_n(path: str, n: int) -> None:
    if n < 0:
        raise ValueError(f"{path}: n must be nonnegative, got {n}")


def _json_int(path: str, value, what: str, n: int | None = None) -> int:
    """The value as a 64-bit integer; with n, one that n of sum within int64."""
    # bool is an int subclass, and a float such as 1.5 must not be truncated
    if not isinstance(value, int) or isinstance(value, bool) or not _in_int64(value):
        raise ValueError(f"{path}: {what} must be a 64-bit integer, got {value!r}")
    if n is not None and abs(value) > sum_bound(n):
        raise ValueError(
            f"{path}: {what} must lie within +-{sum_bound(n)} = (2**63 - 1) // {n} "
            f"so that exact sums fit in 64 bits, got {value}"
        )
    return value


def _token_ints(path: str, tokens: list[str], names: Iterable[str], n: int | None = None) -> list[int]:
    """Text tokens checked as by _json_int; on failure, name the first bad one."""
    try:
        values = [int(tok) for tok in tokens]
        lo, hi = min(values), max(values)
    except ValueError:
        values = None
    if (
        values is None
        or not (_in_int64(lo) and _in_int64(hi))
        or (n is not None and max(hi, -lo) > sum_bound(n))
    ):
        for tok, what in zip(tokens, names):
            try:
                value = int(tok)
            except ValueError:
                value = tok  # not an integer: _json_int rejects it by name
            _json_int(path, value, what, n)
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
    _check_n(path, n)
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
            units[i, j] = _json_int(path, cell["units"], f"units of entry ({i}, {j})", n)
            eps[i, j] = _json_int(path, cell["eps_count"], f"eps_count of entry ({i}, {j})", n)
    return MetricTable(units, eps)


def load_metric_any(path: str) -> MetricTable:
    """Dispatch on extension: .json goes to the JSON reader."""
    if path.endswith(".json"):
        return read_metric_json(path)
    return read_metric_file(path)


def write_edge_list(path: str, edges: Iterable[tuple[int, int]], header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for u, v in edges:
            fh.write(f"{u + 1} {v + 1}\n")
