"""Advice computation by order statistics and exhaustive emulation.

The oracle knows the whole input.  It sorts the 2-items (the values of at
least 1/2), tries every number m of critical bins from 0 up to their count
with x_m set to the m-th largest input value, emulates the advice strategy
for each, and reports the advice that covers the most bins (smallest such
m on ties).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import ONE, Sequence, class_index
from .strategies import advice_dh_run


@dataclass(frozen=True)
class OracleResult:
    """Best advice found by the sweep, plus the full sweep table.

    ``sweep[m]`` is ``(m, covered)`` and ``thresholds[m]`` the x_m it ran
    with: the m-th largest value, or the sentinel 1 for m = 0.
    """

    m: int
    x_m: Fraction
    covered: int
    sweep: tuple[tuple[int, int], ...]
    thresholds: tuple[Fraction, ...]


def compute_advice(seq: Sequence, k: int) -> OracleResult:
    """Sweep m from 0 to the 2-item count and keep the best advice.

    Each candidate m is emulated with x_m = m-th largest value; the result
    is the smallest m whose emulated covered count is maximal.  The 2-items
    are the same for every k >= 2 and are the largest values, so the m-th
    largest 2-item is the m-th largest value.
    """
    values = (item.value for item in seq.items)
    two_items = sorted((v for v in values if class_index(v.numerator, v.denominator) == 2), reverse=True)
    thresholds = (ONE, *two_items)
    sweep: list[tuple[int, int]] = []
    best_m = 0
    best_covered = -1
    for m, x_m in enumerate(thresholds):
        covered = advice_dh_run(seq, k, m, x_m).covered_count
        sweep.append((m, covered))
        if covered > best_covered:
            best_m, best_covered = m, covered
    return OracleResult(best_m, thresholds[best_m], best_covered, tuple(sweep), thresholds)
