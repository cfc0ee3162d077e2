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

Loads are exact integers over the strategy's *scale*, fixed when the
strategy is built: the sequence's :attr:`~bincover.model.Sequence.scale`,
or for the advice strategy its lcm with x_m's denominator.  An item weighs
its value times that scale, so a load reaches 1 exactly when it reaches the
scale.  :func:`replay` reports loads as Fractions; whole runs build no
per-step trace.
"""

from __future__ import annotations

import itertools
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
    """A next-fit lane: one active bin, closed the moment it is covered.
    It keeps no reference to its strategy, so a run leaves no cycle."""

    __slots__ = ("_ids", "_closed", "_scale", "_kind", "_t", "active", "load")

    def __init__(self, strategy: "_StrategyBase", kind: str, t: int | None = None):
        self._ids = strategy._ids
        self._closed = strategy._closed
        self._scale = strategy._scale
        self._kind = kind
        self._t = t
        self.active: Bin | None = None
        self.load = 0  # over the strategy's scale

    def place(self, rule: str, item: Item, weight: int) -> RawStep:
        bin = self.active
        if bin is None:
            bin = self.active = Bin(next(self._ids), self._kind, [], self._t)
        bin.items.append(item)
        load_after = self.load + weight
        if load_after >= self._scale:
            self._closed.append(bin)
            self.active = None
            self.load = 0
            return rule, bin, load_after, None, True
        self.load = load_after
        return rule, bin, load_after, None, False


class _StrategyBase:
    def __init__(self, scale: int) -> None:
        self._ids = itertools.count()  # bin ids, in order of opening
        self._closed: list[Bin] = []
        self._scale = scale

    def _advance(self, item: Item, weight: int) -> RawStep:
        """Place ``item``, of ``weight`` over the scale."""
        raise NotImplementedError

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

    def __init__(self, scale: int) -> None:
        super().__init__(scale)
        self._lane = _Lane(self, DNF_BIN)

    def _lanes(self) -> list[_Lane]:
        return [self._lane]

    def _advance(self, item: Item, weight: int) -> RawStep:
        return self._lane.place(RULE_DNF, item, weight)


class DualHarmonic(_StrategyBase):
    """Dual Harmonic: one independent next-fit lane per size class.

    A class's lane is opened by its first item, so a run holds at most one
    lane per item however large k is.
    """

    def __init__(self, k: int, scale: int) -> None:
        if k < 2:
            raise DomainError(f"k must be at least 2, got {k}")
        super().__init__(scale)
        self.k = k
        self._t_lanes: dict[int, _Lane] = {}
        self._small_lane = _Lane(self, SMALL_BIN)

    def _lanes(self) -> list[_Lane]:
        return [lane for _, lane in sorted(self._t_lanes.items())] + [self._small_lane]

    def _open_t_lane(self, t: int) -> _Lane:
        lane = self._t_lanes[t] = _Lane(self, T_BIN, t)
        return lane

    def _advance(self, item: Item, weight: int) -> RawStep:
        value = item.value
        t = class_index(value.numerator, value.denominator)
        if t > self.k:
            return self._small_lane.place(RULE_SMALL_BIN, item, weight)
        lane = self._t_lanes.get(t) or self._open_t_lane(t)
        return lane.place(RULE_T_BIN, item, weight)


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

    def __init__(self, k: int, m: int, x_m: Fraction, scale: int) -> None:
        x = check_advice(m, x_m)
        super().__init__(k, math.lcm(scale, x.denominator))
        self.m = m
        self.x_m = x
        self._x = scaled(x, self._scale)
        self._criticals = [_CriticalBin(Bin(next(self._ids), CRITICAL), self._x) for _ in range(m)]
        self._next_without_big = 0
        self._next_unsaturated = 0

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
            lane = self._t_lanes.get(t) or self._open_t_lane(t)
            return lane.place(RULE_T_BIN, item, weight)
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


def make_strategy(config: StrategyConfig, scale: int) -> DualNextFit | DualHarmonic | AdviceDualHarmonic:
    """Build the configured strategy over ``scale``, a multiple of the
    denominator of every value it will be given."""
    if config.name == "dnf":
        return DualNextFit(scale)
    if config.name == "dh":
        if config.k is None:
            raise DomainError("dh requires k")
        return DualHarmonic(config.k, scale)
    if config.name == "adh":
        if config.k is None or config.m is None or config.x_m is None:
            raise DomainError("adh requires k, m and x_m")
        return AdviceDualHarmonic(config.k, config.m, config.x_m, scale)
    raise DomainError(f"unknown strategy {config.name!r}")


def _run(strategy, seq: Sequence) -> Covering:
    scale = strategy._scale
    advance = strategy._advance
    for item in seq.items:
        advance(item, scaled(item.value, scale))
    return strategy.finish()


def dnf_run(seq: Sequence) -> Covering:
    """Run Dual Next Fit over a normalized sequence."""
    return _run(DualNextFit(seq.scale), seq)


def dh_run(seq: Sequence, k: int) -> Covering:
    """Run Dual Harmonic with k size classes over a normalized sequence."""
    return _run(DualHarmonic(k, seq.scale), seq)


def advice_dh_run(seq: Sequence, k: int, m: int, x_m: Fraction) -> Covering:
    """Run the advice strategy with ``m`` critical bins and threshold ``x_m``."""
    return _run(AdviceDualHarmonic(k, m, x_m, seq.scale), seq)


def replay(seq: Sequence, config: StrategyConfig) -> list[Placement]:
    """Deterministic per-step trace of a run, for debugging and audits."""
    strategy = make_strategy(config, seq.scale)
    scale = strategy._scale
    trace: list[Placement] = []
    for index, item in enumerate(seq.items):
        rule, bin, load_after, virtual_after, closed = strategy._advance(item, scaled(item.value, scale))
        virtual = None if virtual_after is None else Fraction(virtual_after, scale)
        trace.append(Placement(index, item, rule, bin.id, bin.kind, Fraction(load_after, scale), virtual, closed))
    return trace
