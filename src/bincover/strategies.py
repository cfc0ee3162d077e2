"""Online bin covering strategies as deterministic state machines.

All three strategies consume one item at a time, never look ahead, and
close a bin the moment its load reaches 1:

* :class:`DualNextFit` keeps a single active bin.
* :class:`DualHarmonic` keeps one independent active bin per size class.
* :class:`AdviceDualHarmonic` additionally reserves ``m`` critical bins,
  each meant to hold one large item of value at least ``x_m`` plus small
  items.  A critical bin carries a *virtual load*: ``x_m`` (or the actual
  large item once placed) plus its small items.  Small items go to the
  first critical bin whose virtual load is below 1; everything else runs
  through the ordinary per-class lanes.

Runs are deterministic: the same (config, advice, sequence) produces the
same covering, bin ids included.

Loads are exact integers over the strategy's *scale*, a common denominator
of every value seen so far (and of x_m).  The scale only grows: an item
whose denominator does not divide it multiplies every open load by the
growth factor.  Whole runs start from the sequence's own
:attr:`~bincover.model.Sequence.scale`, so they never rescale partway.
``step`` reports loads as Fractions; whole runs build no per-step trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    CRITICAL,
    DNF_BIN,
    SMALL_BIN,
    T_BIN,
    Bin,
    Covering,
    DomainError,
    Item,
    Sequence,
    check_advice,
    class_index,
    scaled,
)

RULE_DNF = "dnf"
RULE_T_BIN = "t-bin"
RULE_SMALL_BIN = "small-bin"
RULE_CRITICAL_BIG = "critical-big"
RULE_CRITICAL_SMALL = "critical-small"


@dataclass(frozen=True)
class StrategyConfig:
    """Which strategy to run, and with which parameters."""

    name: str  # "dnf", "dh" or "adh"
    k: int | None = None
    m: int | None = None
    x_m: Fraction | None = None


@dataclass(frozen=True)
class Placement:
    """One step of a run: where an item went and the loads afterwards."""

    step_index: int
    item: Item
    rule: str
    bin_id: int
    bin_kind: str
    load_after: Fraction
    virtual_after: Fraction | None
    closed: bool


# The raw outcome of one step: rule, bin, load and virtual load after the
# step (ints over the strategy's scale; virtual is None outside critical
# bins), and whether the step closed the bin.
RawStep = tuple[str, Bin, int, int | None, bool]


class _Lane:
    """A next-fit lane: one active bin, closed the moment it is covered."""

    __slots__ = ("_strategy", "_kind", "_t", "active", "load")

    def __init__(self, strategy: "_StrategyBase", kind: str, t: int | None = None):
        self._strategy = strategy
        self._kind = kind
        self._t = t
        self.active: Bin | None = None
        self.load = 0  # over the strategy's scale

    def place(self, rule: str, item: Item, weight: int) -> RawStep:
        bin = self.active
        if bin is None:
            bin = self.active = Bin(self._strategy._next_id(), self._kind, [], self._t)
        bin.items.append(item)
        load_after = self.load + weight
        if load_after >= self._strategy._scale:
            self._strategy._closed.append(bin)
            self.active = None
            self.load = 0
            return rule, bin, load_after, None, True
        self.load = load_after
        return rule, bin, load_after, None, False


class _StrategyBase:
    def __init__(self) -> None:
        self._ids = 0
        self._closed: list[Bin] = []
        self._steps = 0
        self._scale = 1

    def _next_id(self) -> int:
        allocated = self._ids
        self._ids += 1
        return allocated

    def _lanes(self) -> list[_Lane]:
        raise NotImplementedError

    def _rescale(self, divisor: int) -> None:
        """Grow the scale to a multiple of ``divisor``, keeping every open
        load exact."""
        scale = math.lcm(self._scale, divisor)
        factor = scale // self._scale
        if factor == 1:
            return
        self._scale = scale
        self._grow(factor)

    def _grow(self, factor: int) -> None:
        for lane in self._lanes():
            lane.load *= factor

    def _advance(self, item: Item, weight: int) -> RawStep:
        """Place ``item``, of ``weight`` over the current scale."""
        raise NotImplementedError

    def step(self, item: Item) -> Placement:
        """Place one item and report where it went, loads as Fractions."""
        value = item.value
        if self._scale % value.denominator:
            self._rescale(value.denominator)
        scale = self._scale
        rule, bin, load_after, virtual_after, closed = self._advance(item, scaled(value, scale))
        placement = Placement(
            self._steps, item, rule, bin.id, bin.kind, Fraction(load_after, scale),
            None if virtual_after is None else Fraction(virtual_after, scale), closed,
        )
        self._steps += 1
        return placement

    def _open_lane_leftover(self) -> list[Item]:
        leftover: list[Item] = []
        for lane in self._lanes():
            if lane.active is not None:
                leftover.extend(lane.active.items)
        return leftover

    def finish(self) -> Covering:
        return Covering(list(self._closed), self._open_lane_leftover())


class DualNextFit(_StrategyBase):
    """Dual Next Fit: fill one active bin until covered, then open a new one."""

    def __init__(self) -> None:
        super().__init__()
        self._lane = _Lane(self, DNF_BIN)

    def _lanes(self) -> list[_Lane]:
        return [self._lane]

    def _advance(self, item: Item, weight: int) -> RawStep:
        return self._lane.place(RULE_DNF, item, weight)


class DualHarmonic(_StrategyBase):
    """Dual Harmonic: one independent next-fit lane per size class."""

    def __init__(self, k: int) -> None:
        if k < 2:
            raise DomainError(f"k must be at least 2, got {k}")
        super().__init__()
        self.k = k
        self._t_lanes = {t: _Lane(self, T_BIN, t) for t in range(2, k + 1)}
        self._small_lane = _Lane(self, SMALL_BIN)

    def _lanes(self) -> list[_Lane]:
        return [*self._t_lanes.values(), self._small_lane]

    def _advance(self, item: Item, weight: int) -> RawStep:
        value = item.value
        t = class_index(value.numerator, value.denominator)
        if t > self.k:
            return self._small_lane.place(RULE_SMALL_BIN, item, weight)
        return self._t_lanes[t].place(RULE_T_BIN, item, weight)


class _CriticalBin:
    """Strategy-side state of one critical bin; loads over the scale."""

    __slots__ = ("bin", "virtual", "actual")

    def __init__(self, bin: Bin, virtual: int):
        self.bin = bin
        self.virtual = virtual
        self.actual = 0


class AdviceDualHarmonic(DualHarmonic):
    """Dual Harmonic with ``m`` critical bins driven by the advice (m, x_m).

    Items of value at least ``x_m`` fill the critical bins in index order,
    one per bin; once all critical bins hold their large item, further such
    items fall back to their ordinary class lane.  Small items go to the
    first critical bin with virtual load below 1, then to the small lane.
    Critical bins stay open for the whole run and count as covered only if
    their actual load reaches 1 by the end.
    """

    def __init__(self, k: int, m: int, x_m: Fraction) -> None:
        x = check_advice(m, x_m)
        super().__init__(k)
        self.m = m
        self.x_m = x
        self._scale = x.denominator
        self._x = x.numerator  # x_m over the scale
        self._criticals = [_CriticalBin(Bin(self._next_id(), CRITICAL), self._x) for _ in range(m)]
        self._next_without_big = 0
        self._next_unsaturated = 0

    def _grow(self, factor: int) -> None:
        super()._grow(factor)
        self._x *= factor
        for critical in self._criticals:
            critical.virtual *= factor
            critical.actual *= factor

    def _advance(self, item: Item, weight: int) -> RawStep:
        if self._next_without_big < self.m and weight >= self._x:
            critical = self._criticals[self._next_without_big]
            self._next_without_big += 1
            critical.bin.items.append(item)
            critical.virtual += weight - self._x
            critical.actual += weight
            return RULE_CRITICAL_BIG, critical.bin, critical.actual, critical.virtual, False
        value = item.value
        t = class_index(value.numerator, value.denominator)
        if t <= self.k:
            return self._t_lanes[t].place(RULE_T_BIN, item, weight)
        position = self._next_unsaturated
        while position < self.m and self._criticals[position].virtual >= self._scale:
            position += 1
        self._next_unsaturated = position
        if position == self.m:
            return self._small_lane.place(RULE_SMALL_BIN, item, weight)
        critical = self._criticals[position]
        critical.bin.items.append(item)
        critical.virtual += weight
        critical.actual += weight
        return RULE_CRITICAL_SMALL, critical.bin, critical.actual, critical.virtual, False

    def finish(self) -> Covering:
        bins: list[Bin] = []
        leftover: list[Item] = []
        for critical in self._criticals:
            if critical.actual >= self._scale:
                bins.append(critical.bin)
            else:
                leftover.extend(critical.bin.items)
        bins.extend(self._closed)
        leftover.extend(self._open_lane_leftover())
        return Covering(bins, leftover)


def make_strategy(config: StrategyConfig) -> DualNextFit | DualHarmonic | AdviceDualHarmonic:
    if config.name == "dnf":
        return DualNextFit()
    if config.name == "dh":
        if config.k is None:
            raise DomainError("dh requires k")
        return DualHarmonic(config.k)
    if config.name == "adh":
        if config.k is None or config.m is None or config.x_m is None:
            raise DomainError("adh requires k, m and x_m")
        return AdviceDualHarmonic(config.k, config.m, config.x_m)
    raise DomainError(f"unknown strategy {config.name!r}")


def _run(strategy, seq: Sequence) -> Covering:
    # Every item's denominator divides the scale from here on.
    strategy._rescale(seq.scale)
    scale = strategy._scale
    advance = strategy._advance
    for item in seq.items:
        advance(item, scaled(item.value, scale))
    return strategy.finish()


def dnf_run(seq: Sequence) -> Covering:
    """Run Dual Next Fit over a normalized sequence."""
    return _run(DualNextFit(), seq)


def dh_run(seq: Sequence, k: int) -> Covering:
    """Run Dual Harmonic with k size classes over a normalized sequence."""
    return _run(DualHarmonic(k), seq)


def advice_dh_run(seq: Sequence, k: int, m: int, x_m: Fraction) -> Covering:
    """Run the advice strategy with ``m`` critical bins and threshold ``x_m``."""
    return _run(AdviceDualHarmonic(k, m, x_m), seq)


def replay(seq: Sequence, config: StrategyConfig) -> list[Placement]:
    """Deterministic per-step trace of a run, for debugging and audits."""
    strategy = make_strategy(config)
    strategy._rescale(seq.scale)
    return [strategy.step(item) for item in seq.items]
