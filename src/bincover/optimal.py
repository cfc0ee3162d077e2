"""Exact optimal coverings, certificates, decomposition, and bound checks.

The solver maximizes the number of disjoint bins of load at least 1 over
*minimal* covering subsets (no proper subset of a candidate bin covers).
Any optimal covering can shed surplus items from its bins without losing
count, so the restriction is lossless and it shrinks the search space
considerably.

The search evaluates one recurrence over bitmasks of the items, top-down
and memoized.  ``best(mask)`` starts at the best of ``mask`` without its
lowest item.  It then takes, in ascending mask order, the first minimal
cover ``C`` that holds the lowest item, lies in ``mask`` and makes
``1 + best(mask - C)`` strictly greater.  Removing one item loses at most
one bin, so that first ``C`` reaches the maximum, and the scan stops there.
The floor of a mask's load bounds ``best`` from above and prunes the rest:

- a mask whose value already equals ``floor(load(mask))`` scans no cover;
- a cover ``C`` is skipped, unsolved, when ``1 + floor(load(mask - C))``
  cannot beat the value so far.

Neither rule skips a cover that would have been strictly greater, so every
mask the search reaches gets the value and the choice that a bottom-up pass
over all 2^n masks gives it, and the certificate, read off those choices,
is the same covering.

For larger instances the exact value can still be pinned by combining an
explicit certificate (a lower bound) with the floor of the total load (an
upper bound: a covering of c bins has load at least c).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

from .model import ONE, ZERO, Sequence, class_index, scaled

DEFAULT_SIZE_LIMIT = 15
# The search keeps two lists of 2^n ints, the mask loads and lightest items.
# Measured on random and repeated-value instances (2-vCPU machine, Python
# 3.11): up to 26 MB and 0.12-0.22 s at n = 19, 52 MB and 0.21-1.06 s at
# n = 20.  Memory doubles with each further item.
MAX_SIZE_LIMIT = 20


class CertificateError(ValueError):
    """A covering certificate failed validation."""


class SizeLimitError(ValueError):
    """The instance is too large for the exact search."""


@dataclass(frozen=True)
class Certificate:
    """An explicit covering: per bin, the indices of the items it packs."""

    bins: tuple[tuple[int, ...], ...]


def floor_load_bound(seq: Sequence) -> int:
    """floor(total load): an upper bound on the optimal number of bins."""
    scale = seq.scale
    return sum(scaled(item.value, scale) for item in seq.items) // scale


def opt_exact(seq: Sequence, size_limit: int = DEFAULT_SIZE_LIMIT) -> tuple[int, Certificate]:
    """Exact maximum number of covered bins, with one maximizing certificate.

    Refuses instances with more than ``size_limit`` items; callers then fall
    back to :func:`floor_load_bound` or a supplied certificate.
    """
    n = seq.n
    if n > size_limit:
        raise SizeLimitError(f"instance has {n} items, exact search is limited to {size_limit}")
    if n == 0:
        return 0, Certificate(())

    # Common-denominator integers keep the search exact without Fraction cost.
    target = seq.scale
    weights = [scaled(item.value, target) for item in seq.items]
    size = 1 << n
    loads = [0]
    lightest = [sum(weights)]  # no lighter than any item, so {i} gets weight i
    for weight in weights:
        loads += [load + weight for load in loads]
        lightest += [light if light < weight else weight for light in lightest]
    # A minimal cover loses its coverage without any one of its items; the
    # masks whose lowest item is i are range(1 << i, size, 2 << i).
    covers_by_lowest = [
        [mask for mask in range(1 << i, size, 2 << i) if loads[mask] >= target > loads[mask] - lightest[mask]]
        for i in range(n)
    ]
    del lightest

    best: dict[int, int] = {}
    choice: dict[int, int] = {}

    def solve(mask: int) -> int:
        value = best.get(mask)
        if value is not None:
            return value
        cap = loads[mask] // target  # floor of the load bounds every covering
        if cap == 0:
            best[mask] = choice[mask] = 0
            return 0
        low = mask & -mask
        value = solve(mask ^ low)  # leave the lowest remaining item unused
        chosen = 0
        if value < cap:
            for cover in covers_by_lowest[low.bit_length() - 1]:
                rest = mask ^ cover  # 1 + best(rest) > value needs floor(load(rest)) >= value
                if cover & mask == cover and loads[rest] // target >= value and solve(rest) >= value:
                    value, chosen = value + 1, cover
                    break
        best[mask] = value
        choice[mask] = chosen
        return value

    opt = solve(size - 1)
    del solve  # the closure refers to itself; freeing it lets refcounting reclaim the tables

    bins: list[tuple[int, ...]] = []
    mask = size - 1
    while loads[mask] >= target:
        cover = choice[mask]
        if cover:
            bins.append(tuple(i for i in range(n) if cover >> i & 1))
            mask ^= cover
        else:
            mask ^= mask & -mask
    return opt, Certificate(tuple(bins))


def verify_certificate(seq: Sequence, cert: Certificate) -> int:
    """Validate a certificate and return its bin count.

    Checks index bounds, disjointness, and per-bin load at least 1; any
    violation raises :class:`CertificateError` naming the bin and reason.
    """
    seen: set[int] = set()
    for position, indices in enumerate(cert.bins):
        bin_load = ZERO
        for index in indices:
            if not 0 <= index < seq.n:
                raise CertificateError(f"bin {position}: item index {index} is out of range")
            if index in seen:
                raise CertificateError(f"bin {position}: item index {index} is used twice")
            seen.add(index)
            bin_load += seq.items[index].value
        if bin_load < ONE:
            raise CertificateError(f"bin {position}: load {bin_load} is below 1")
    return len(cert.bins)


GroupKey = tuple[int, ...]


def _t_class(value: Fraction, k: int) -> int | None:
    """t for a t-item under k classes, else None: values outside ]0,1[ are
    prepacked or dropped, never t-items, and count with the small ones."""
    if 0 < value.numerator < value.denominator:
        t = class_index(value.numerator, value.denominator)
        if t <= k:
            return t
    return None


def key_is_easy(key: GroupKey) -> bool:
    """The bin types alone guarantee coverage: sum of 1/t is at least 1."""
    return sum((Fraction(1, t) for t in key), ZERO) >= ONE


def key_is_gap(key: GroupKey) -> bool:
    """Small items are mandatory: sum of 1/(t-1) stays below 1."""
    return sum((Fraction(1, t - 1) for t in key), ZERO) < ONE


@dataclass(frozen=True)
class GroupDecomposition:
    """A covering's bins grouped by the multiset of their t-item types.

    Bins covered by small items alone are counted in ``small_only_count``
    and their small mass is stored under the empty key.  ``t_totals`` counts
    t-items across the whole sequence; ``placed_t_totals`` counts only the
    t-items inside the covering's bins.
    """

    k: int
    groups: dict[GroupKey, int]
    small_only_count: int
    small_mass: dict[GroupKey, Fraction]
    t_totals: dict[int, int]
    placed_t_totals: dict[int, int]
    easy: dict[GroupKey, bool]
    gap: dict[GroupKey, bool]

    @property
    def total_bins(self) -> int:
        return sum(self.groups.values()) + self.small_only_count


def decompose(seq: Sequence, cert: Certificate, k: int) -> GroupDecomposition:
    """Group a certificate's bins by their sorted t-item type multisets."""
    groups: dict[GroupKey, int] = {}
    small_mass: dict[GroupKey, Fraction] = {}
    placed = {t: 0 for t in range(2, k + 1)}
    small_only = 0
    for indices in cert.bins:
        types: list[int] = []
        bin_small_mass = ZERO
        for index in indices:
            value = seq.items[index].value
            t = _t_class(value, k)
            if t is not None:
                types.append(t)
                placed[t] += 1
            else:
                bin_small_mass += value
        key = tuple(sorted(types))
        if key:
            groups[key] = groups.get(key, 0) + 1
        else:
            small_only += 1
        small_mass[key] = small_mass.get(key, ZERO) + bin_small_mass
    totals = {t: 0 for t in range(2, k + 1)}
    for item in seq.items:
        t = _t_class(item.value, k)
        if t is not None:
            totals[t] += 1
    return GroupDecomposition(
        k=k,
        groups=groups,
        small_only_count=small_only,
        small_mass=small_mass,
        t_totals=totals,
        placed_t_totals=placed,
        easy={key: key_is_easy(key) for key in groups},
        gap={key: key_is_gap(key) for key in groups},
    )


def canonical_group_keys(k: int) -> tuple[GroupKey, ...]:
    """All group keys that can appear in a normalized optimal covering.

    A key survives normalization iff removing any one of its types leaves a
    non-easy multiset: non-easy keys qualify outright, easy keys only when
    they are minimally easy.  Keys never exceed k types, because any k types
    already sum to at least k * (1/k) = 1 in reciprocal.
    """
    keys: list[GroupKey] = []
    for length in range(1, k + 1):
        for key in combinations_with_replacement(range(2, k + 1), length):
            if key_is_easy(key):
                reduced = (key[:i] + key[i + 1:] for i in range(length))
                if any(key_is_easy(sub) for sub in reduced):
                    continue
            keys.append(key)
    return tuple(sorted(keys, key=lambda key: (len(key), key)))


def normalize_certificate(seq: Sequence, cert: Certificate, k: int) -> Certificate:
    """Strip each bin that is covered by its t-items alone down to a minimal
    core of t-items; surplus items leave the covering.

    Other bins are kept whole.  The bin count is preserved and every bin
    stays covered: a kept core has reciprocal sum at least 1, and actual
    values only exceed the reciprocals.  Afterwards every group key is
    canonical, so the per-class counting identities hold over placed items.
    """
    bins: list[tuple[int, ...]] = []
    for indices in cert.bins:
        typed: list[tuple[int, int]] = []  # (t, index)
        for index in indices:
            t = _t_class(seq.items[index].value, k)
            if t is not None:
                typed.append((t, index))
        typed.sort()
        reciprocal = ZERO
        core: list[int] = []
        for t, index in typed:
            if reciprocal >= ONE:
                break
            reciprocal += Fraction(1, t)
            core.append(index)
        if reciprocal >= ONE:
            # Largest reciprocals first, so dropping any core member breaks
            # coverage: the core is minimally easy.
            bins.append(tuple(sorted(core)))
        else:
            bins.append(tuple(sorted(indices)))
    return Certificate(tuple(bins))


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of the per-class counting identity check, with a diff."""

    ok: bool
    expected: tuple[tuple[int, int], ...]  # (t, count implied by group sums)
    placed: tuple[tuple[int, int], ...]  # (t, t-items inside the covering)
    sequence_totals: tuple[tuple[int, int], ...]
    noncanonical_keys: tuple[GroupKey, ...]


def verify_count_identities(decomp: GroupDecomposition) -> IdentityReport:
    """Check that group counts account for every placed t-item exactly once.

    For each class t, the number of t-items inside the covering must equal
    the sum of each canonical group's count weighted by how many t's its key
    carries.  Keys outside the canonical set (possible before normalization)
    are reported and force a failure, since the identity sums skip them.
    """
    canonical = set(canonical_group_keys(decomp.k))
    expected = {t: 0 for t in range(2, decomp.k + 1)}
    for key, count in decomp.groups.items():
        if key not in canonical:
            continue
        for t in key:
            expected[t] += count
    ok = all(expected[t] == decomp.placed_t_totals[t] for t in expected)
    noncanonical = tuple(sorted(key for key in decomp.groups if key not in canonical))
    if noncanonical:
        ok = False
    return IdentityReport(
        ok=ok,
        expected=tuple(sorted(expected.items())),
        placed=tuple(sorted(decomp.placed_t_totals.items())),
        sequence_totals=tuple(sorted(decomp.t_totals.items())),
        noncanonical_keys=noncanonical,
    )


@dataclass(frozen=True)
class BoundSpec:
    """A guarantee of the form covered >= ratio * opt - additive."""

    k: int
    ratio: Fraction
    additive: Fraction


BOUND_SPECS: dict[int, BoundSpec] = {
    2: BoundSpec(2, Fraction(3, 5), Fraction(19, 15)),
    3: BoundSpec(3, Fraction(9, 14), Fraction(97, 42)),
    4: BoundSpec(4, Fraction(2, 3), Fraction(173, 60)),
}


def check_bound(strategy_covered: int, opt: int, spec: BoundSpec) -> bool:
    """Evaluate covered >= ratio * opt - additive in exact rationals."""
    return Fraction(strategy_covered) >= spec.ratio * opt - spec.additive


def parse_certificate(text: str) -> Certificate:
    """Parse the certificate format: one bin per line of 0-based indices."""
    bins: list[tuple[int, ...]] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            bins.append(tuple(int(token) for token in line.split()))
        except ValueError as exc:
            raise CertificateError(f"line {lineno}: cannot parse {line!r} as item indices") from exc
    return Certificate(tuple(bins))


def format_certificate(cert: Certificate) -> str:
    return "".join(" ".join(str(index) for index in bin) + "\n" for bin in cert.bins)


def load_certificate(path: str | Path) -> Certificate:
    return parse_certificate(Path(path).read_text())


def save_certificate(path: str | Path, cert: Certificate) -> None:
    Path(path).write_text(format_certificate(cert))
