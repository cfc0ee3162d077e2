"""Exact core model for online bin covering.

Every value is a :class:`fractions.Fraction`; there is no floating point
anywhere in the library.  Hot loops add and compare loads as exact integers
over a common denominator instead (:attr:`Sequence.scale`, :func:`scaled`).
Items, sequences, bins and coverings are plain data objects shared by the
strategies, the advice oracle, the exact solver and the CLI harness.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterable

ZERO = Fraction(0)
ONE = Fraction(1)
_VALUE = re.compile(r"[+-]?(\d+/\d+|\d+\.?\d*|\.\d+)")  # the text of one value

# Bin kinds.
CRITICAL = "critical"
T_BIN = "t-bin"
SMALL_BIN = "small-bin"
DNF_BIN = "dnf"
PREPACKED = "prepacked"


class DomainError(ValueError):
    """A value fell outside the domain an operation is defined on."""


def check_advice(m: int, x_m: Fraction | int | str) -> Fraction:
    """Validate the advice pair (m, x_m) and return x_m as a Fraction.

    The domain is m >= 0 and 0 < x_m <= 1, shared by the strategy and the
    tape codec; the codec adds only its canonical x_m = 1 for m = 0.
    """
    if m < 0:
        raise DomainError(f"m must be non-negative, got {m}")
    x = Fraction(x_m)
    if not ZERO < x <= ONE:
        raise DomainError(f"x_m must lie in ]0,1], got {x}")
    return x


@dataclass(frozen=True)
class Item:
    """One input value together with its 0-based position in the input."""

    value: Fraction
    source_index: int


def class_index(numerator: int, denominator: int) -> int:
    """The t with 1/t <= v < 1/(t-1) for v = numerator/denominator in ]0,1[.

    That t is the exact ceiling of 1/v, computed on the integers alone; the
    value is a t-item under k classes when t <= k and small otherwise, so
    1/2 is a 2-item and exactly 1/k is a k-item.
    """
    if not 0 < numerator < denominator:
        raise DomainError(f"a size class is defined on ]0,1[, got {Fraction(numerator, denominator)}")
    return -(-denominator // numerator)


def scaled(value: Fraction, scale: int) -> int:
    """``value * scale`` as an int; ``scale`` must be a multiple of the
    value's denominator, such as the :attr:`Sequence.scale` it comes from."""
    return value.numerator * (scale // value.denominator)


@dataclass
class Bin:
    """A bin with an id, a kind tag, and the items packed into it."""

    id: int
    kind: str
    items: list[Item] = field(default_factory=list)
    t: int | None = None  # class index, set for t-bins only


def load(bin: Bin, scale: int) -> Fraction:
    """Exact sum of the item values in ``bin``; ``scale`` as in :func:`scaled`."""
    return Fraction(sum(scaled(item.value, scale) for item in bin.items), scale)


@dataclass(frozen=True)
class Sequence:
    """An ordered input sequence, consumed item by item by strategies."""

    items: tuple[Item, ...]

    @classmethod
    def from_values(cls, values: Iterable[Fraction | int | str]) -> "Sequence":
        return cls(tuple(Item(v if isinstance(v, Fraction) else Fraction(v), i) for i, v in enumerate(values)))

    @property
    def n(self) -> int:
        return len(self.items)

    @cached_property
    def scale(self) -> int:
        """The lcm of the item denominators (1 when empty): every value
        times ``scale`` is an integer.  Computed once per sequence."""
        # Pairwise rounds over the distinct denominators keep the operands
        # balanced: a running lcm is quadratic in many distinct primes.
        factors = list({item.value.denominator for item in self.items}) or [1]
        while len(factors) > 1:
            factors = [math.lcm(*factors[i:i + 2]) for i in range(0, len(factors), 2)]
        return factors[0]

    def values(self) -> tuple[Fraction, ...]:
        return tuple(item.value for item in self.items)

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class Covering:
    """Covered bins produced by a run, plus items stranded in uncovered bins.

    ``bins`` holds only covered bins, so ``covered_count`` is ``len(bins)``;
    the multiset of items across ``bins`` and ``leftover`` equals the input.
    ``prepacked_count`` records how many of the covered bins came from input
    normalization rather than from the strategy itself.
    """

    bins: list[Bin]
    leftover: list[Item]
    prepacked_count: int = 0

    @property
    def covered_count(self) -> int:
        return len(self.bins)


@dataclass(frozen=True)
class NormalizedInput:
    """Result of input normalization: online sequence plus prepacked bins."""

    sequence: Sequence
    prepacked: tuple[Bin, ...]
    discarded_zeros: tuple[Item, ...]


def normalize_sequence(seq: Sequence) -> NormalizedInput:
    """Split ``seq`` into an online sequence over ]0,1[ and prepacked bins.

    A value >= 1 covers a bin on its own and is removed from the online
    sequence; zeros are attached to the first prepacked bin when one exists
    and recorded as discarded otherwise.  Kept items are ``seq``'s own, so
    each retains its position in the raw input as ``source_index``.
    """
    kept: list[Item] = []
    prepacked: list[Bin] = []
    zeros: list[Item] = []
    for item in seq.items:
        value = item.value
        if value.numerator >= value.denominator:
            prepacked.append(Bin(len(prepacked), PREPACKED, [item]))
        elif value.numerator == 0:
            zeros.append(item)
        else:
            kept.append(item)
    discarded: tuple[Item, ...] = ()
    if zeros:
        if prepacked:
            prepacked[0].items.extend(zeros)
        else:
            discarded = tuple(zeros)
    return NormalizedInput(Sequence(tuple(kept)), tuple(prepacked), discarded)


def merge_prepacked(covering: Covering, prepacked: Iterable[Bin]) -> Covering:
    """Append prepacked bins to a strategy covering, renumbering their ids."""
    extra = list(prepacked)
    if not extra:
        return covering
    next_id = max((bin.id for bin in covering.bins), default=-1) + 1
    bins = list(covering.bins)
    for offset, bin in enumerate(extra):
        bins.append(Bin(next_id + offset, PREPACKED, list(bin.items)))
    return Covering(bins, list(covering.leftover), covering.prepacked_count + len(extra))


def parse_value(text: str) -> Fraction:
    """``p/q`` with q > 0 or a finite decimal, exactly (``0.45`` is 9/20); any
    other text, an exponent such as ``1e-5000`` included, is rejected."""
    try:
        if _VALUE.fullmatch(text):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise DomainError(f"cannot parse {text!r} as a rational")


def parse_instance(text: str) -> list[Fraction]:
    """Parse the shared instance format: one :func:`parse_value` per line.

    Blank lines and lines starting with ``#`` are ignored; a bad or negative
    value is rejected with its line.  Equal lines share one Fraction.
    """
    values: list[Fraction] = []
    parsed: dict[str, Fraction] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        value = parsed.get(line)
        if value is None:
            if not line or line.startswith("#"):
                continue
            try:
                value = parsed[line] = parse_value(line)
            except DomainError as exc:
                raise DomainError(f"line {lineno}: {exc}") from exc
            if value < 0:
                raise DomainError(f"line {lineno}: negative item value {value}")
        values.append(value)
    return values


def format_instance(values: Iterable[Fraction]) -> str:
    return "".join(f"{value}\n" for value in values)


def load_instance(path: str | Path) -> list[Fraction]:
    return parse_instance(Path(path).read_text())


def save_instance(path: str | Path, values: Iterable[Fraction]) -> None:
    Path(path).write_text(format_instance(values))
