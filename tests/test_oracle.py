import heapq
from fractions import Fraction

from hypothesis import given, strategies as st

from bincover.model import Sequence
from bincover.generators import example_instance, smalls_first_family
from bincover.oracle import compute_advice
from bincover.strategies import advice_dh_run, dh_run

F = Fraction

values_in_unit = st.fractions(min_value=F(1, 200), max_value=F(199, 200), max_denominator=200)


def test_thresholds_examples():
    assert compute_advice(example_instance(), 3).thresholds[2] == F(4, 5)
    assert compute_advice(Sequence.from_values(["0.5"]), 3).thresholds[0] == 1
    assert compute_advice(Sequence.from_values(["0.3", "0.7", "0.7"]), 2).thresholds[2] == F(7, 10)


def test_thresholds_stop_at_two_item_count():
    assert compute_advice(Sequence.from_values(["0.5"]), 3).thresholds == (1, F(1, 2))
    assert compute_advice(Sequence.from_values(["0.3", "0.7"]), 3).thresholds == (1, F(7, 10))
    assert compute_advice(Sequence.from_values(["0.3"]), 3).thresholds == (1,)


@given(st.lists(values_in_unit, min_size=1, max_size=30), st.integers(min_value=2, max_value=4))
def test_thresholds_agree_with_nlargest(values, k):
    result = compute_advice(Sequence.from_values(values), k)
    assert len(result.thresholds) == len(result.sweep)
    assert result.thresholds[0] == 1
    for m, _ in result.sweep[1:]:
        assert result.thresholds[m] == heapq.nlargest(m, values)[-1]
    assert result.x_m == result.thresholds[result.m]


def test_oracle_on_example_instance():
    result = compute_advice(example_instance(), 3)
    # hand-checked sweep prefix and maximum
    assert result.sweep[0] == (0, 9)
    assert result.sweep[1] == (1, 8)
    assert (2, 9) in result.sweep
    assert len(result.sweep) == 11  # ten 2-items plus m = 0
    assert result.covered == 10
    assert result.m == 6
    assert result.x_m == F(11, 20)


def test_oracle_on_empty_sequence():
    result = compute_advice(Sequence.from_values([]), 3)
    assert (result.m, result.x_m, result.covered) == (0, 1, 0)
    assert result.sweep == ((0, 0),)


def test_oracle_on_smalls_first_family():
    # hand-simulated sweep: m in {0,1,2} covers 2 bins, m = 3 covers all 3
    result = compute_advice(smalls_first_family(3), 4)
    assert result.sweep == ((0, 2), (1, 2), (2, 2), (3, 3))
    assert (result.m, result.covered) == (3, 3)


@given(st.lists(values_in_unit, max_size=20), st.integers(min_value=2, max_value=4))
def test_oracle_result_is_consistent(values, k):
    seq = Sequence.from_values(values)
    result = compute_advice(seq, k)
    assert advice_dh_run(seq, k, result.m, result.x_m).covered_count == result.covered
    assert all(result.covered >= covered for _, covered in result.sweep)
    smaller = [m for m, covered in result.sweep if covered == result.covered]
    assert result.m == min(smaller)


@given(st.lists(values_in_unit, max_size=20), st.integers(min_value=2, max_value=4))
def test_oracle_dominates_no_advice(values, k):
    seq = Sequence.from_values(values)
    assert compute_advice(seq, k).covered >= dh_run(seq, k).covered_count


@given(st.lists(values_in_unit, max_size=16), st.integers(min_value=2, max_value=4), st.data())
def test_sweep_entries_match_reruns(values, k, data):
    seq = Sequence.from_values(values)
    result = compute_advice(seq, k)
    m, covered = data.draw(st.sampled_from(result.sweep))
    assert advice_dh_run(seq, k, m, result.thresholds[m]).covered_count == covered
