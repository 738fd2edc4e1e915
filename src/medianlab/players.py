"""Deterministic query algorithms that play against live oracles.

A player is anything with a ``name`` attribute and a
``run(oracle, n) -> int`` method: it may call ``oracle.query(a, b)``
or ``oracle.query_many(a, b)`` with 0-based points of an n-point space
and must finally return one
point as its median guess.  Players are deterministic given their
constructor arguments, which is what makes every game replayable.
"""

from __future__ import annotations

import math
import random

from .metric import exact_median
from .solvers import PivotInner, SamplingInner

__all__ = [
    "ExactOnPrefix",
    "PivotOnPrefix",
    "SamplingPlayer",
    "RandomFuzzer",
    "StreamPlayer",
    "ProtocolError",
    "PLAYERS",
    "make_player",
    "largest_prefix_for_budget",
]


def largest_prefix_for_budget(n: int, budget: int) -> int:
    """Largest s <= n with s*(s-1)/2 <= budget (at least 1)."""
    s = (1 + math.isqrt(1 + 8 * budget)) // 2
    while s * (s - 1) // 2 > budget:
        s -= 1
    return max(1, min(n, s))


class ExactOnPrefix:
    """Brute-force median of the largest affordable prefix subset."""

    def __init__(self, budget: int):
        self.budget = budget
        self.name = "exact"

    def run(self, oracle, n: int) -> int:
        return exact_median(oracle, range(largest_prefix_for_budget(n, self.budget)))[0]


class PivotOnPrefix:
    """Pivot tournament on a prefix sized so its 3s queries fit the budget."""

    def __init__(self, budget: int):
        self.budget = budget
        self.name = "pivot"

    def run(self, oracle, n: int) -> int:
        s = max(1, min(n, self.budget // 3))
        return PivotInner().solve(oracle, list(range(s))).output


class SamplingPlayer:
    """Seeded sampling baseline sized to roughly sqrt(budget) picks."""

    def __init__(self, budget: int, seed: int):
        self.budget = budget
        self.seed = seed
        self.name = "sampling"

    def run(self, oracle, n: int) -> int:
        k = min(math.isqrt(max(self.budget, 0)), n)
        # a zero budget asks nothing and returns point 0, as the exact and pivot players do
        return SamplingInner(self.seed, k).solve(oracle, range(n)).output if k else 0


class RandomFuzzer:
    """Spends the whole budget on seeded uniform queries, answers ignored.

    The pairs are drawn first, a then b for each, and asked as one
    ``query_many`` batch; the answers are ignored, so the transcript is
    the one the same pairs asked one ``query`` at a time would give.
    """

    def __init__(self, budget: int, seed: int):
        self.budget = budget
        self.seed = seed
        self.name = "fuzzer"

    def run(self, oracle, n: int) -> int:
        rng = random.Random(self.seed)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(self.budget)]
        oracle.query_many([a for a, _ in pairs], [b for _, b in pairs])
        return rng.randrange(n)


class ProtocolError(ValueError):
    """An external player broke the QUERY/OUTPUT line protocol."""


class StreamPlayer:
    """Bridge to an external process speaking the line protocol.

    Reads "QUERY a b" / "OUTPUT z" lines (1-based points) from
    ``infile``, writes "ANSWER v" lines to ``outfile``, and returns the
    announced output.  Used by the CLI to host foreign algorithms.
    Points outside 1..n, non-integer tokens and queries beyond
    ``budget`` raise ProtocolError.
    """

    def __init__(self, infile, outfile, budget: int):
        self.infile = infile
        self.outfile = outfile
        self.budget = budget
        self.name = "extern"

    def run(self, oracle, n: int) -> int:
        queries = 0
        for raw in self.infile:
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "QUERY" and len(parts) == 3:
                a, b = _points(line, parts[1:], n)
                queries += 1
                if queries > self.budget:
                    raise ProtocolError(f"query {queries} exceeds the budget of {self.budget}")
                answer = oracle.query(a, b)
                self.outfile.write(f"ANSWER {answer.units}\n")
                self.outfile.flush()
            elif parts[0] == "OUTPUT" and len(parts) == 2:
                return _points(line, parts[1:], n)[0]
            else:
                raise ProtocolError(f"malformed protocol line: {line!r}")
        raise ProtocolError("stream ended before an OUTPUT line")


def _points(line: str, tokens: list[str], n: int) -> list[int]:
    """1-based point tokens of a protocol line, as 0-based indices."""
    try:
        points = [int(tok) - 1 for tok in tokens]
    except ValueError:
        raise ProtocolError(f"non-integer point in protocol line: {line!r}") from None
    for p in points:
        if not 0 <= p < n:
            raise ProtocolError(f"point {p + 1} outside 1..{n} in protocol line: {line!r}")
    return points


# name -> factory(budget, seed); the CLI's --algo choices, in this order
PLAYERS = {
    "exact": lambda budget, seed: ExactOnPrefix(budget),
    "pivot": lambda budget, seed: PivotOnPrefix(budget),
    "sampling": SamplingPlayer,
    "random": RandomFuzzer,
}


def make_player(name: str, budget: int, seed: int = 0):
    if name not in PLAYERS:
        raise ValueError(f"unknown player {name!r}")
    return PLAYERS[name](budget, seed)
