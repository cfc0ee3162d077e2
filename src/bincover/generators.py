"""Instance construction.

Three sources: a bundled 28-item worked example with a known 11-bin optimal
covering, an exact-fill family delivered smalls-first whose optimum is one
big item plus r small items per bin, and seeded random instances on a
rational grid.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .model import ONE, DomainError, Sequence
from .optimal import Certificate

_EXAMPLE_VALUES = (
    "0.25", "0.80", "0.72", "0.20", "0.90", "0.45", "0.51",
    "0.67", "0.45", "0.60", "0.42", "0.55", "0.53", "0.28", "0.11",
    "0.15", "0.52", "0.15", "0.51", "0.41", "0.15", "0.35", "0.10",
    "0.35", "0.30", "0.30", "0.40", "0.18",
)

_EXAMPLE_CERTIFICATE_BINS = (
    (6, 12),            # 0.51 + 0.53
    (16, 18),           # 0.52 + 0.51
    (4, 14),            # 0.90 + 0.11
    (1, 3),             # 0.80 + 0.20
    (2, 13),            # 0.72 + 0.28
    (7, 15, 27),        # 0.67 + 0.15 + 0.18
    (11, 17, 24),       # 0.55 + 0.15 + 0.30
    (9, 26),            # 0.60 + 0.40
    (5, 20, 21, 22),    # 0.45 + 0.15 + 0.35 + 0.10
    (0, 8, 23),         # 0.25 + 0.45 + 0.35
    (10, 19, 25),       # 0.42 + 0.41 + 0.30
)


def example_instance() -> Sequence:
    """The bundled 28-item example instance; its optimum covers 11 bins."""
    return Sequence.from_values(_EXAMPLE_VALUES)


def example_certificate() -> Certificate:
    """An optimal covering of the example instance, 11 bins."""
    return Certificate(_EXAMPLE_CERTIFICATE_BINS)


DEFAULT_BIG = Fraction(11, 20)
DEFAULT_SMALL = Fraction(9, 100)


def _family_ratio(big: Fraction, small: Fraction) -> int:
    if not Fraction(1, 2) <= big < ONE:
        raise DomainError(f"big must lie in [1/2,1[, got {big}")
    if not 0 < small < Fraction(1, 4):
        raise DomainError(f"small must lie in ]0,1/4[, got {small}")
    ratio = (ONE - big) / small
    if ratio.denominator != 1 or ratio < 1:
        raise DomainError(f"(1-big)/small must be a positive integer, got {ratio}")
    return int(ratio)


def smalls_first_family(
    bins: int,
    big: Fraction = DEFAULT_BIG,
    small: Fraction = DEFAULT_SMALL,
) -> Sequence:
    """``bins * r`` small items followed by ``bins`` big items, r = (1-big)/small.

    The optimal covering has exactly ``bins`` bins, each one big item plus r
    small items summing to exactly 1, so the floor of the load pins the
    optimum without any search.
    """
    if bins < 0:
        raise DomainError(f"bins must be non-negative, got {bins}")
    ratio = _family_ratio(Fraction(big), Fraction(small))
    values = [Fraction(small)] * (bins * ratio) + [Fraction(big)] * bins
    return Sequence.from_values(values)


def smalls_first_certificate(
    bins: int,
    big: Fraction = DEFAULT_BIG,
    small: Fraction = DEFAULT_SMALL,
) -> Certificate:
    """The exact-fill optimal covering matching :func:`smalls_first_family`."""
    ratio = _family_ratio(Fraction(big), Fraction(small))
    smalls = bins * ratio
    return Certificate(
        tuple(
            tuple(range(i * ratio, (i + 1) * ratio)) + (smalls + i,)
            for i in range(bins)
        )
    )


@dataclass(frozen=True)
class RandomSpec:
    """Seeded uniform draw from the grid of multiples of 1/denominator_bound."""

    n: int
    value_min: Fraction
    value_max: Fraction
    denominator_bound: int
    seed: int


def random_instance(spec: RandomSpec) -> Sequence:
    """``n`` exact rationals drawn i.i.d. from the grid; deterministic per seed."""
    lo_bound = Fraction(spec.value_min)
    hi_bound = Fraction(spec.value_max)
    if not 0 < lo_bound < hi_bound < ONE:
        raise DomainError(f"need 0 < value_min < value_max < 1, got {lo_bound}, {hi_bound}")
    if spec.n < 0:
        raise DomainError(f"n must be non-negative, got {spec.n}")
    if spec.denominator_bound < 1:
        raise DomainError(f"denominator_bound must be positive, got {spec.denominator_bound}")
    scale = spec.denominator_bound
    lo = math.ceil(lo_bound * scale)
    hi = math.floor(hi_bound * scale)
    if lo > hi:
        raise DomainError("no grid point lies inside [value_min, value_max]")
    rng = random.Random(spec.seed)
    return Sequence.from_values(Fraction(rng.randint(lo, hi), scale) for _ in range(spec.n))
