"""Independent reference values for the tests.

``exhaustive_partition_opt`` is a brute-force oracle for optimal coverings:
it enumerates every covering submask directly (no minimality pruning, no
integer scaling) so it shares no shortcuts with the production solver.
``bottom_up_opt`` is the solver's bottom-up dynamic program over every
mask, which the bounded top-down search in ``bincover.optimal`` replaced;
both pick the same covering, so the tests compare certificates as well.
``smalls_first_covered`` is the hand-derived covered count of the advice
strategy on the default smalls-first family; it runs no strategy code.
``total_load``, ``is_covered``, ``covering_items`` and ``gap_deficiency``
are plain Fraction sums and reciprocals that the checks compare against.
"""

import math
from fractions import Fraction

from bincover.optimal import Certificate

ONE = Fraction(1)
ZERO = Fraction(0)


def exhaustive_partition_opt(values) -> int:
    vals = [Fraction(v) for v in values]
    n = len(vals)
    if n == 0:
        return 0
    size = 1 << n
    load = [ZERO] * size
    for mask in range(1, size):
        low = mask & -mask
        load[mask] = load[mask ^ low] + vals[low.bit_length() - 1]
    best = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        value = best[rest]  # leave the lowest item out of every bin
        sub = rest
        while True:
            candidate = sub | low
            if load[candidate] >= ONE:
                packed = 1 + best[mask ^ candidate]
                if packed > value:
                    value = packed
            if sub == 0:
                break
            sub = (sub - 1) & rest
        best[mask] = value
    return best[size - 1]


def bottom_up_opt(seq) -> tuple[int, Certificate]:
    """Maximum covered bins and a certificate, by a DP over all 2^n masks.

    ``best[mask]`` starts at ``best[mask ^ lowest]`` (the lowest item stays
    unused) and takes, among the minimal covers that hold the lowest item and
    lie in ``mask``, the first in ascending mask order whose ``1 + best`` of
    the rest is strictly greater.
    """
    n = seq.n
    if n == 0:
        return 0, Certificate(())
    target = math.lcm(*(item.value.denominator for item in seq.items))
    weights = [int(item.value * target) for item in seq.items]
    size = 1 << n
    loads = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        loads[mask] = loads[mask ^ low] + weights[low.bit_length() - 1]

    covers_by_lowest: list[list[int]] = [[] for _ in range(n)]
    for mask in range(1, size):
        if loads[mask] < target:
            continue
        bits = mask
        minimal = True
        while bits:
            low = bits & -bits
            if loads[mask] - weights[low.bit_length() - 1] >= target:
                minimal = False
                break
            bits ^= low
        if minimal:
            covers_by_lowest[(mask & -mask).bit_length() - 1].append(mask)

    best = [0] * size
    choice = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        value = best[mask ^ low]
        chosen = 0
        for cover in covers_by_lowest[low.bit_length() - 1]:
            if cover & mask == cover:
                candidate = 1 + best[mask ^ cover]
                if candidate > value:
                    value, chosen = candidate, cover
        best[mask] = value
        choice[mask] = chosen

    bins: list[tuple[int, ...]] = []
    mask = size - 1
    while mask:
        cover = choice[mask]
        if cover:
            bins.append(tuple(i for i in range(n) if cover >> i & 1))
            mask ^= cover
        else:
            mask ^= mask & -mask
    return best[size - 1], Certificate(tuple(bins))


def smalls_first_covered(bins: int, m: int) -> int:
    """Bins covered by the advice strategy on ``smalls_first_family(bins)``.

    Default sizes (5 * bins smalls of 9/100, then bins bigs of 11/20), k from
    2 to 11 (so 9/100 is small and 11/20 a 2-item), advice m in 0..bins with
    x_m the m-th largest value:

    - each of the m critical bins takes 5 smalls (virtual load 11/20 + 45/100
      reaches exactly 1) and later one big item, for an actual load of 1;
    - the leftover 5 * (bins - m) smalls close a small-lane bin every 12,
      since 11 * 9/100 < 1 <= 12 * 9/100;
    - the leftover bins - m bigs are 2-items and close a 2-lane bin in pairs.
    """
    rest = bins - m
    return m + rest // 2 + 5 * rest // 12


def total_load(seq) -> Fraction:
    """Exact sum of all item values in the sequence."""
    return sum((item.value for item in seq.items), ZERO)


def is_covered(bin) -> bool:
    """True iff the bin's load is at least 1 (exact comparison)."""
    return sum((item.value for item in bin.items), ZERO) >= ONE


def covering_items(covering) -> list:
    """All items of a covering: packed into bins or left over."""
    return [item for bin in covering.bins for item in bin.items] + list(covering.leftover)


def gap_deficiency(key) -> Fraction:
    """Small mass every gap bin of this type must exceed: 1 - sum 1/(t-1)."""
    return ONE - sum((Fraction(1, t - 1) for t in key), ZERO)
