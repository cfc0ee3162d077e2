import gc
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from _naive import covering_items, is_covered, total_load
from bincover.model import (
    CRITICAL,
    DomainError,
    Sequence,
    class_index,
    load,
)
from bincover.generators import RandomSpec, example_instance, random_instance
from bincover.oracle import compute_advice
from bincover.strategies import (
    StrategyConfig,
    advice_dh_run,
    dh_run,
    dnf_run,
    replay,
)

F = Fraction

values_in_unit = st.fractions(min_value=F(1, 200), max_value=F(199, 200), max_denominator=200)
small_sequences = st.lists(values_in_unit, max_size=25)


def seq_of(*values) -> Sequence:
    return Sequence.from_values(values)


def bin_values(bin):
    return [item.value for item in bin.items]


# --- Dual Next Fit ---------------------------------------------------------


def test_dnf_examples():
    covering = dnf_run(seq_of("0.6", "0.5", "0.7", "0.4"))
    assert covering.covered_count == 2
    assert [bin_values(b) for b in covering.bins] == [
        [F(3, 5), F(1, 2)],
        [F(7, 10), F(2, 5)],
    ]

    assert dnf_run(seq_of()).covered_count == 0

    covering = dnf_run(seq_of("0.5", "0.5", "0.5"))
    assert covering.covered_count == 1
    assert [item.value for item in covering.leftover] == [F(1, 2)]


def test_dnf_on_example_instance():
    assert dnf_run(example_instance()).covered_count == 8


def test_dnf_closes_exactly_on_reaching_one():
    covering = dnf_run(seq_of("0.5", "0.5", "0.1"))
    assert bin_values(covering.bins[0]) == [F(1, 2), F(1, 2)]
    assert [item.value for item in covering.leftover] == [F(1, 10)]


# --- Dual Harmonic ----------------------------------------------------------


def test_dh_example_k2():
    covering = dh_run(seq_of("0.6", "0.3", "0.55", "0.45", "0.25"), 2)
    assert covering.covered_count == 2
    assert [bin_values(b) for b in covering.bins] == [
        [F(3, 5), F(11, 20)],
        [F(3, 10), F(9, 20), F(1, 4)],
    ]


def test_dh_trivia():
    assert dh_run(seq_of("0.5", "0.5"), 2).covered_count == 1
    seq = seq_of("0.4", "0.4", "0.4")
    covering = dh_run(seq, 3)
    assert covering.covered_count == 1
    assert load(covering.bins[0], seq.scale) == F(6, 5)


def test_dh_on_example_instance():
    assert dh_run(example_instance(), 3).covered_count == 9


def test_dh_rejects_bad_k():
    with pytest.raises(DomainError):
        dh_run(seq_of("0.5"), 1)


@given(small_sequences, st.integers(min_value=2, max_value=5))
def test_dh_class_purity(values, k):
    covering = dh_run(Sequence.from_values(values), k)
    for bin in covering.bins:
        # Every small item has a class index above k: they share one class.
        classes = {min(class_index(item.value.numerator, item.value.denominator), k + 1) for item in bin.items}
        assert len(classes) == 1


# --- Advice strategy --------------------------------------------------------


def test_advice_reproduces_reference_run():
    covering = advice_dh_run(example_instance(), 3, 2, F(4, 5))
    assert covering.covered_count == 9
    criticals = [b for b in covering.bins if b.kind == CRITICAL]
    assert [bin_values(b) for b in criticals] == [
        [F(1, 4), F(4, 5)],
        [F(1, 5), F(9, 10)],
    ]
    small_bins = [b for b in covering.bins if b.kind == "small-bin"]
    assert bin_values(small_bins[0]) == [
        F(7, 25), F(11, 100), F(3, 20), F(3, 20), F(3, 20), F(1, 10), F(3, 10)
    ]
    assert sorted(item.value for item in covering.leftover) == [F(9, 50), F(3, 10), F(2, 5)]


def test_advice_smalls_stop_at_virtual_one():
    covering = advice_dh_run(seq_of(*(["0.1"] * 5), "0.55"), 3, 1, F(11, 20))
    assert covering.covered_count == 1
    assert covering.leftover == []
    assert bin_values(covering.bins[0]) == [F(1, 10)] * 5 + [F(11, 20)]


def test_advice_overflow_falls_back_to_class_lane():
    covering = advice_dh_run(seq_of("0.6", "0.7", "0.8"), 2, 1, F(3, 5))
    assert covering.covered_count == 1
    two_bins = [b for b in covering.bins if b.kind == "t-bin"]
    assert [bin_values(b) for b in two_bins] == [[F(7, 10), F(4, 5)]]
    assert [item.value for item in covering.leftover] == [F(3, 5)]


def test_advice_rejects_bad_parameters():
    with pytest.raises(DomainError):
        advice_dh_run(seq_of("0.5"), 3, -1, F(1))
    with pytest.raises(DomainError):
        advice_dh_run(seq_of("0.5"), 3, 1, F(3, 2))


def test_uncovered_critical_goes_to_leftover():
    covering = advice_dh_run(seq_of("0.6"), 2, 1, F(11, 20))
    assert covering.covered_count == 0
    assert [item.value for item in covering.leftover] == [F(3, 5)]


@given(small_sequences, st.integers(min_value=2, max_value=4))
def test_m0_sentinel_equals_dual_harmonic(values, k):
    seq = Sequence.from_values(values)
    assert advice_dh_run(seq, k, 0, F(1)) == dh_run(seq, k)


advice_cases = st.tuples(
    small_sequences,
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=6),
    st.fractions(min_value=F(1, 2), max_value=1, max_denominator=50),
)


@given(advice_cases)
def test_advice_conserves_items(case):
    values, k, m, x = case
    seq = Sequence.from_values(values)
    covering = advice_dh_run(seq, k, m, x if m else F(1))
    assert Counter(covering_items(covering)) == Counter(seq.items)
    assert covering.covered_count == len(covering.bins)
    assert all(is_covered(bin) for bin in covering.bins)


@given(advice_cases)
def test_critical_bin_structure(case):
    values, k, m, x = case
    if m == 0:
        x = F(1)
    trace = replay(Sequence.from_values(values), StrategyConfig("adh", k=k, m=m, x_m=x))
    criticals: dict[int, list] = {}
    for step in trace:
        if step.rule in ("critical-big", "critical-small"):
            criticals.setdefault(step.bin_id, []).append(step.item.value)
    assert set(criticals) <= set(range(m))  # critical bins take the first ids
    for placed in criticals.values():
        big = [value for value in placed if value >= x]
        smalls = [value for value in placed if value < x]
        assert len(big) <= 1
        if smalls:
            # before its last small item the virtual load was still below 1
            assert x + sum(smalls[:-1], F(0)) < 1


@given(small_sequences, st.integers(min_value=2, max_value=4))
def test_advice_virtual_load_bookkeeping(values, k):
    seq = Sequence.from_values(values)
    m = min(2, len(values))
    x = F(1, 2)
    trace = replay(seq, StrategyConfig("adh", k=k, m=m, x_m=x))
    for bin_id in range(m):  # critical bins take the first ids
        steps = [step for step in trace if step.bin_kind == CRITICAL and step.bin_id == bin_id]
        big = [step.item.value for step in steps if step.item.value >= x]
        smalls = sum(
            (step.item.value for step in steps if step.item.value < x), F(0)
        )
        expected = (big[0] if big else x) + smalls
        virtual = steps[-1].virtual_after if steps else x
        assert virtual == expected
        has_big = any(step.rule == "critical-big" for step in steps)
        assert has_big == bool(big)


# --- integer loads against Fraction sums -------------------------------------

# Item denominators: the 1/100 grid and a few primes, so a sequence and its
# prefixes have different scales.  x_m takes a prime denominator no item has,
# so it never divides the sequence's scale.
ITEM_PRIMES = (101, 103, 107, 109, 113)
X_PRIMES = (997, 1009)

grid_values = st.integers(min_value=1, max_value=99).map(lambda p: F(p, 100))
prime_values = st.sampled_from(ITEM_PRIMES).flatmap(
    lambda q: st.integers(min_value=1, max_value=q - 1).map(lambda p: F(p, q))
)
off_scale_x = st.sampled_from(X_PRIMES).flatmap(
    lambda q: st.integers(min_value=q // 3, max_value=q - 1).map(lambda p: F(p, q))
)
mixed_configs = st.one_of(
    st.just(StrategyConfig("dnf")),
    st.integers(min_value=2, max_value=4).map(lambda k: StrategyConfig("dh", k=k)),
    st.builds(
        lambda k, m, x: StrategyConfig("adh", k=k, m=m, x_m=x),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=4),
        off_scale_x,
    ),
)


def check_against_fractions(trace, config):
    """Every reported load equals the Fraction sum of its bin's items so far;
    returns the number of bins whose items sum to at least 1."""
    placed: dict[int, list] = {}
    with_big: set[int] = set()
    for step in trace:
        values = placed.setdefault(step.bin_id, [])
        values.append(step.item.value)
        total = sum(values, F(0))
        assert step.load_after == total
        if step.bin_kind == CRITICAL:
            assert not step.closed
            if step.rule == "critical-big":
                with_big.add(step.bin_id)
            # x_m stands in for the large item until it arrives
            assert step.virtual_after == total + (0 if step.bin_id in with_big else config.x_m)
        else:
            assert step.virtual_after is None
            assert step.closed == (total >= 1)
    return sum(1 for values in placed.values() if sum(values, F(0)) >= 1)


@given(st.lists(st.one_of(grid_values, prime_values), max_size=30), mixed_configs)
def test_integer_loads_match_fraction_sums(values, config):
    seq = Sequence.from_values(values)
    covered = check_against_fractions(replay(seq, config), config)
    if config.name == "dnf":
        run = dnf_run(seq)
    elif config.name == "dh":
        run = dh_run(seq, config.k)
    else:
        run = advice_dh_run(seq, config.k, config.m, config.x_m)
    assert run.covered_count == covered


# --- shared behaviour -------------------------------------------------------


@given(st.lists(st.fractions(min_value=F(1, 100), max_value=F(1, 3), max_denominator=100), max_size=30))
def test_dnf_overshoot_bound(values):
    # with all items at most alpha every covered bin stays below 1 + alpha
    alpha = F(1, 3)
    seq = Sequence.from_values(values)
    for bin in dnf_run(seq).bins:
        assert 1 <= load(bin, seq.scale) < 1 + alpha


@given(st.lists(st.fractions(min_value=F(1, 100), max_value=F(1, 2), max_denominator=100), max_size=40))
def test_dnf_floor_load_lower_bound(values):
    alpha = F(1, 2)
    seq = Sequence.from_values(values)
    covered = dnf_run(seq).covered_count
    floor = math.floor(total_load(seq))
    assert covered > (floor - 1) / (1 + alpha)


@given(small_sequences)
def test_dnf_half_competitive(values):
    seq = Sequence.from_values(values)
    assert dnf_run(seq).covered_count > total_load(seq) / 2 - 1


@given(advice_cases)
def test_runs_are_deterministic(case):
    values, k, m, x = case
    seq = Sequence.from_values(values)
    if m == 0:
        x = F(1)
    assert advice_dh_run(seq, k, m, x) == advice_dh_run(seq, k, m, x)


@given(
    st.lists(st.one_of(grid_values, prime_values), max_size=30),
    st.integers(min_value=0, max_value=30),
    mixed_configs,
)
def test_replay_prefix_causality(values, cut, config):
    # A prefix usually has a smaller scale than the whole sequence; the
    # decisions on it must not depend on that.
    seq = Sequence.from_values(values)
    prefix = Sequence.from_values(values[:cut])
    full_trace = replay(seq, config)
    assert replay(prefix, config) == full_trace[: prefix.n]


def test_replay_matches_run():
    seq = example_instance()
    config = StrategyConfig("adh", k=3, m=2, x_m=F(4, 5))
    trace = replay(seq, config)
    assert len(trace) == seq.n
    closed = sum(1 for step in trace if step.closed)
    covering = advice_dh_run(seq, 3, 2, F(4, 5))
    criticals_covered = sum(1 for bin in covering.bins if bin.kind == CRITICAL)
    assert closed + criticals_covered == covering.covered_count


def test_replay_empty_and_single():
    assert replay(seq_of(), StrategyConfig("dnf")) == []
    trace = replay(seq_of("0.5"), StrategyConfig("adh", k=2, m=0, x_m=F(1)))
    assert len(trace) == 1
    assert trace[0].rule == "t-bin"


def test_lanes_do_not_scale_with_k():
    # A class lane opens with its first item, so a huge k allocates nothing.
    seq = example_instance()
    top = max(class_index(v.numerator, v.denominator) for v in seq.values())
    runs = (lambda k: dh_run(seq, k), lambda k: advice_dh_run(seq, k, 3, F(3, 5)))
    for run in runs:
        tracemalloc.start()
        try:
            covering = run(10**5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert covering == run(top)
        assert peak < 100_000  # 10^5 lanes made up front take about 17 MB


def test_runs_leave_no_cyclic_garbage():
    # A finished run is freed by reference counting alone: nothing it built
    # waits for the cyclic collector, which a long run would leave to pile up.
    seq = random_instance(RandomSpec(400, F(1, 100), F(99, 100), 100, seed=3))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        dnf_run(seq)
        dh_run(seq, 3)
        advice_dh_run(seq, 3, 20, F(3, 5))
        compute_advice(seq, 3)
        replay(seq, StrategyConfig("adh", k=3, m=20, x_m=F(3, 5)))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
