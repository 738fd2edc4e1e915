"""A fixed piece of reference work that gauges the machine's current speed.

On a shared box the same computation runs at different speeds from one
minute to the next. The benchmark times this kernel next to every item
and reports the item's time scaled to a kernel time of ``REFERENCE_S``:

    reported = measured * REFERENCE_S / kernel time measured beside it

Program changes move ``measured`` and leave the kernel alone, while a
slow phase of the machine moves both. The kernel mixes what medianlab
spends its time on: arithmetic on small frozen dataclasses, dict and
tuple churn, and numpy passes over int64 and boolean arrays.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 0.012  # about the kernel's median time on the 2-vCPU box of the baseline

_INTS = np.arange(65536, dtype=np.int64)


@dataclass(frozen=True, slots=True, order=True)
class _Pair:
    """Shaped like medianlab's exact distances: frozen, slotted, checked."""

    units: int
    eps: int = 0

    def __post_init__(self) -> None:
        if self.units < 0 or self.eps < 0:
            raise ValueError("negative component")

    def __add__(self, other: "_Pair") -> "_Pair":
        return _Pair(self.units + other.units, self.eps + other.eps)


def _kernel() -> int:
    total = _Pair(0)
    table: dict[int, tuple[int, int]] = {}
    for i in range(4000):
        total = total + _Pair(i & 15, i & 1)
    for i in range(10000):
        table[i & 1023] = (i, i * 3)
    a = _INTS
    for _ in range(8):
        a = (a * 3 + 1) % 1000003
    mask = np.zeros((256, 256), dtype=bool)
    mask[::3] = True
    for _ in range(5):
        mask[mask.any(axis=0)] ^= True
    return total.units + len(table) + int(a[-1]) + int(mask.sum())


def measure() -> float:
    """Seconds one run of the kernel takes right now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scale(seconds: float, kernel_samples: list[float]) -> float:
    """``seconds`` at reference speed, given kernel times measured beside it."""
    return seconds * REFERENCE_S / statistics.median(kernel_samples)


def scaled_items(latencies: list[float], kernel: list[float]) -> list[float]:
    """Scale item i by the kernel runs just before and just after it."""
    return [scale(dt, kernel[i : i + 2]) for i, dt in enumerate(latencies)]
