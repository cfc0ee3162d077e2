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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import (
    CRITICAL,
    DNF_BIN,
    ONE,
    SMALL_BIN,
    T_BIN,
    ZERO,
    Bin,
    Covering,
    DomainError,
    Item,
    Sequence,
    Small,
    TItem,
    check_advice,
    classify,
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


class _Lane:
    """A next-fit lane: one active bin, closed the moment it is covered."""

    def __init__(self, strategy: "_StrategyBase", kind: str, t: int | None = None):
        self._strategy = strategy
        self._kind = kind
        self._t = t
        self.active: Bin | None = None
        self.load = ZERO

    def place(self, item: Item) -> tuple[Bin, Fraction, bool]:
        if self.active is None:
            self.active = Bin(self._strategy._next_id(), self._kind, [], self._t)
            self.load = ZERO
        bin = self.active
        bin.items.append(item)
        self.load += item.value
        load_after = self.load
        closed = load_after >= ONE
        if closed:
            self._strategy._closed.append(bin)
            self.active = None
            self.load = ZERO
        return bin, load_after, closed


class _StrategyBase:
    def __init__(self) -> None:
        self._ids = 0
        self._closed: list[Bin] = []
        self._steps = 0

    def _next_id(self) -> int:
        allocated = self._ids
        self._ids += 1
        return allocated


class DualNextFit(_StrategyBase):
    """Dual Next Fit: fill one active bin until covered, then open a new one."""

    def __init__(self) -> None:
        super().__init__()
        self._lane = _Lane(self, DNF_BIN)

    def step(self, item: Item) -> Placement:
        bin, load_after, closed = self._lane.place(item)
        placement = Placement(self._steps, item, RULE_DNF, bin.id, bin.kind, load_after, None, closed)
        self._steps += 1
        return placement

    def finish(self) -> Covering:
        bins = list(self._closed)
        leftover = list(self._lane.active.items) if self._lane.active else []
        return Covering(bins, leftover)


class DualHarmonic(_StrategyBase):
    """Dual Harmonic: one independent next-fit lane per size class."""

    def __init__(self, k: int) -> None:
        if k < 2:
            raise DomainError(f"k must be at least 2, got {k}")
        super().__init__()
        self.k = k
        self._t_lanes = {t: _Lane(self, T_BIN, t) for t in range(2, k + 1)}
        self._small_lane = _Lane(self, SMALL_BIN)

    def step(self, item: Item) -> Placement:
        item_class = classify(item.value, self.k)
        if isinstance(item_class, TItem):
            lane, rule = self._t_lanes[item_class.t], RULE_T_BIN
        else:
            lane, rule = self._small_lane, RULE_SMALL_BIN
        bin, load_after, closed = lane.place(item)
        placement = Placement(self._steps, item, rule, bin.id, bin.kind, load_after, None, closed)
        self._steps += 1
        return placement

    def _open_lane_leftover(self) -> list[Item]:
        leftover: list[Item] = []
        for t in range(2, self.k + 1):
            lane = self._t_lanes[t]
            if lane.active is not None:
                leftover.extend(lane.active.items)
        if self._small_lane.active is not None:
            leftover.extend(self._small_lane.active.items)
        return leftover

    def finish(self) -> Covering:
        bins = list(self._closed)
        return Covering(bins, self._open_lane_leftover())


class _CriticalBin:
    """Strategy-side state of one critical bin."""

    __slots__ = ("bin", "virtual", "actual", "has_big")

    def __init__(self, bin: Bin, virtual: Fraction):
        self.bin = bin
        self.virtual = virtual
        self.actual = ZERO
        self.has_big = False


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
        self._criticals = [_CriticalBin(Bin(self._next_id(), CRITICAL), x) for _ in range(m)]
        self._next_without_big = 0
        self._next_unsaturated = 0

    def step(self, item: Item) -> Placement:
        v = item.value
        if self.m and v >= self.x_m and self._next_without_big < self.m:
            critical = self._criticals[self._next_without_big]
            self._next_without_big += 1
            critical.bin.items.append(item)
            critical.virtual += v - self.x_m
            critical.actual += v
            critical.has_big = True
            placement = Placement(
                self._steps, item, RULE_CRITICAL_BIG, critical.bin.id, CRITICAL,
                critical.actual, critical.virtual, False,
            )
            self._steps += 1
            return placement
        item_class = classify(v, self.k)
        if isinstance(item_class, Small):
            position = self._next_unsaturated
            while position < self.m and self._criticals[position].virtual >= ONE:
                position += 1
            self._next_unsaturated = position
            if position < self.m:
                critical = self._criticals[position]
                critical.bin.items.append(item)
                critical.virtual += v
                critical.actual += v
                placement = Placement(
                    self._steps, item, RULE_CRITICAL_SMALL, critical.bin.id, CRITICAL,
                    critical.actual, critical.virtual, False,
                )
                self._steps += 1
                return placement
            lane, rule = self._small_lane, RULE_SMALL_BIN
        else:
            lane, rule = self._t_lanes[item_class.t], RULE_T_BIN
        bin, load_after, closed = lane.place(item)
        placement = Placement(self._steps, item, rule, bin.id, bin.kind, load_after, None, closed)
        self._steps += 1
        return placement

    def finish(self) -> Covering:
        bins: list[Bin] = []
        leftover: list[Item] = []
        for critical in self._criticals:
            if critical.actual >= ONE:
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
    for item in seq.items:
        strategy.step(item)
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
    return [strategy.step(item) for item in seq.items]
