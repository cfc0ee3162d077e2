from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from _naive import is_covered, total_load
from bincover.model import (
    Bin,
    DNF_BIN,
    DomainError,
    Item,
    Sequence,
    class_index,
    format_instance,
    load,
    merge_prepacked,
    normalize_sequence,
    parse_instance,
)
from bincover.generators import example_instance
from bincover.strategies import dnf_run

F = Fraction


def make_bin(*values) -> Bin:
    return Bin(0, DNF_BIN, [Item(F(v), i) for i, v in enumerate(values)])


def size_class(value: Fraction) -> int:
    return class_index(value.numerator, value.denominator)


def test_classify_examples():
    assert size_class(F(1, 2)) == 2
    assert size_class(F(3, 10)) == 4  # a 4-item under k = 4
    assert size_class(F(1, 5)) == 5  # small under k = 4
    assert size_class(F(4, 5)) == 2


def test_classify_boundaries_are_left_closed():
    assert size_class(F(1, 3)) == 3  # exactly 1/k is a k-item
    assert size_class(F(1, 3) - F(1, 1000)) == 4  # small under k = 3


@pytest.mark.parametrize("bad", [F(0), F(1), F(-1, 2), F(3, 2)])
def test_classify_rejects_out_of_range(bad):
    with pytest.raises(DomainError):
        size_class(bad)


@given(
    v=st.fractions(min_value=F(1, 500), max_value=F(499, 500), max_denominator=500),
    k=st.integers(min_value=2, max_value=6),
)
def test_classify_partition(v, k):
    t = size_class(v)
    if t <= k:
        assert 2 <= t
        assert F(1, t) <= v < F(1, t - 1)
    else:
        assert v < F(1, k)


@given(
    a=st.fractions(min_value=F(1, 500), max_value=F(499, 500), max_denominator=500),
    b=st.fractions(min_value=F(1, 500), max_value=F(499, 500), max_denominator=500),
)
def test_classify_monotone(a, b):
    low, high = min(a, b), max(a, b)
    assert size_class(high) <= size_class(low)


def test_load_examples():
    assert load(make_bin("0.53", "0.51"), 100) == F(26, 25)
    assert load(make_bin(), 1) == 0
    assert load(make_bin("0.45", "0.25", "0.35"), 100) == F(21, 20)


def test_is_covered_examples():
    assert is_covered(make_bin("0.5", "0.5"))
    assert not is_covered(make_bin("0.99"))
    assert is_covered(make_bin("0.90", "0.11"))


@given(st.lists(st.fractions(min_value=0, max_value=2, max_denominator=97), max_size=12))
def test_load_fold_order_is_irrelevant(values):
    left = sum((F(v) for v in values), F(0))
    right = F(0)
    for v in reversed(values):
        right = F(v) + right
    assert left == right


def test_normalize_prepacks_units():
    result = normalize_sequence(Sequence.from_values([F(1, 2), F(1), F(3, 10)]))
    assert result.sequence.values() == (F(1, 2), F(3, 10))
    assert len(result.prepacked) == 1
    assert [item.value for item in result.prepacked[0].items] == [F(1)]
    assert result.discarded_zeros == ()


def test_normalize_records_discarded_zero():
    result = normalize_sequence(Sequence.from_values([F(0), F(3, 5)]))
    assert result.sequence.values() == (F(3, 5),)
    assert result.prepacked == ()
    assert [item.value for item in result.discarded_zeros] == [F(0)]


def test_normalize_attaches_zero_to_prepacked_bin():
    result = normalize_sequence(Sequence.from_values([F(0), F(2), F(1, 2)]))
    assert result.discarded_zeros == ()
    assert [item.value for item in result.prepacked[0].items] == [F(2), F(0)]


def test_normalize_keeps_source_positions():
    result = normalize_sequence(Sequence.from_values([F(1), F(1, 2), F(1, 3)]))
    assert [item.source_index for item in result.sequence.items] == [1, 2]


def test_normalize_leaves_example_untouched():
    seq = example_instance()
    result = normalize_sequence(seq)
    assert result.sequence == seq
    assert all(kept is item for kept, item in zip(result.sequence.items, seq.items))
    assert result.prepacked == ()


def test_total_load_examples():
    assert total_load(example_instance()) == F(1131, 100)
    assert total_load(Sequence.from_values([])) == 0
    assert total_load(Sequence.from_values([F(1, 3)] * 3)) == 1


def test_merge_prepacked_counts_and_renumbers():
    covering = dnf_run(Sequence.from_values([F(1, 2), F(1, 2)]))
    prepacked = normalize_sequence(Sequence.from_values([F(1), F(1, 2), F(1, 2)])).prepacked
    merged = merge_prepacked(covering, prepacked)
    assert merged.covered_count == 2
    assert merged.prepacked_count == 1
    assert len({bin.id for bin in merged.bins}) == 2


def test_parse_instance_formats():
    text = "# comment\n\n0.45\n3/10\n1\n"
    assert parse_instance(text) == [F(9, 20), F(3, 10), F(1)]


def test_parse_instance_reports_line():
    with pytest.raises(DomainError, match="line 2"):
        parse_instance("1/2\nnope\n")


def test_parse_instance_rejects_negative():
    with pytest.raises(DomainError, match="line 3: negative item value -1/2"):
        parse_instance("# comment\n0.9\n-1/2\n0.5\n")


def test_parse_instance_shares_one_fraction_per_line_text():
    values = parse_instance("0.5\n1/2\n 0.5 \n# 0.5\n0.5\n1/2\n")
    assert values == [F(1, 2)] * 5
    assert values[0] is values[2] is values[3]
    assert values[1] is values[4]


@pytest.mark.parametrize(
    "bad, message",
    [("bogus", "cannot parse 'bogus'"), ("-1/2", "negative item value -1/2"), ("1e-5", "cannot parse '1e-5'")],
    ids=["unparsable", "negative", "exponent"],
)
def test_parse_instance_names_a_bad_line_after_repeats(bad, message):
    with pytest.raises(DomainError, match=f"^line 5: {message}"):
        parse_instance(f"0.5\n0.5\n# note\n0.5\n{bad}\n0.5\n{bad}\n")


def test_from_values_reuses_fractions():
    values = [F(1, 2), F(3, 5), F(1, 2)]
    seq = Sequence.from_values(values)
    assert all(item.value is value for item, value in zip(seq.items, values))
    assert Sequence.from_values(["0.5", 1]).values() == (F(1, 2), F(1))


def test_instance_round_trip_is_bit_exact():
    values = example_instance().values()
    assert tuple(parse_instance(format_instance(values))) == values
