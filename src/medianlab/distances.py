"""Exact distance values with a symbolic infinitesimal component.

Hard instances for budgeted median selection place a large cluster of
points at a distance so small that no sum of cluster distances can ever
compete with a single integer hop.  That separation is realized here as
``eps``, a formal symbol standing for 1/2**n on an n-point space.  A
float cannot hold 1/2**n once n is in the thousands, so distances are
kept as an exact pair: integer hop units plus an integer count of eps.

Ordering is lexicographic on (units, eps_count).  This agrees with the
true rational order as long as every eps count that can take part in a
comparison stays below 2**n; constructors of glued metrics assert that
regime, and :meth:`ExactDistance.to_fraction` is available when a real
rational value is needed.  The value of eps on a space is a function of
its size alone, :func:`eps_value`; no metric or oracle carries its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = ["ExactDistance", "ZERO", "ONE", "EPS", "total", "eps_value", "eps_float"]


@dataclass(frozen=True, order=True, slots=True)
class ExactDistance:
    """An exact nonnegative distance: ``units + eps_count * eps``."""

    units: int
    eps_count: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.units, int) or not isinstance(self.eps_count, int):
            raise TypeError("distance components must be integers")
        if self.units < 0 or self.eps_count < 0:
            raise ValueError("distance components must be nonnegative")

    def __add__(self, other: "ExactDistance") -> "ExactDistance":
        if not isinstance(other, ExactDistance):
            return NotImplemented
        return ExactDistance(self.units + other.units, self.eps_count + other.eps_count)

    def to_fraction(self, eps: Fraction) -> Fraction:
        """Exact rational value of this distance given the value of eps."""
        return Fraction(self.units) + self.eps_count * eps

    def approx_float(self, eps: float = 0.0) -> float:
        """Float approximation; eps underflows to 0.0 harmlessly for huge spaces."""
        return float(self.units) + self.eps_count * eps

    def __str__(self) -> str:
        if self.eps_count == 0:
            return str(self.units)
        if self.units == 0:
            return f"{self.eps_count}*eps"
        return f"{self.units}+{self.eps_count}*eps"


def eps_value(n: int) -> Fraction:
    """Exact value of one eps symbol on an n-point space: 1/2**n."""
    return Fraction(1, 2**n)


def eps_float(n: int) -> float:
    """Float form of :func:`eps_value`, 0.0 once 2**-n underflows."""
    return 2.0**-n if n < 1074 else 0.0


ZERO = ExactDistance(0)
ONE = ExactDistance(1)
EPS = ExactDistance(0, 1)


def total(values) -> ExactDistance:
    """Sum an iterable of ExactDistance values (empty sum is zero)."""
    units = 0
    eps = 0
    for v in values:
        units += v.units
        eps += v.eps_count
    return ExactDistance(units, eps)
