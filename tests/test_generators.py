from fractions import Fraction

import pytest

from _naive import smalls_first_covered, total_load
from bincover.cli import main
from bincover.generators import (
    RandomSpec,
    example_certificate,
    example_instance,
    random_instance,
    smalls_first_certificate,
    smalls_first_family,
)
from bincover.model import DomainError, parse_instance, format_instance
from bincover.optimal import floor_load_bound, verify_certificate
from bincover.strategies import advice_dh_run

F = Fraction


def test_example_instance_shape():
    seq = example_instance()
    assert seq.n == 28
    assert total_load(seq) == F(1131, 100)
    assert seq.items[0].value == F(1, 4)
    assert seq.items[-1].value == F(9, 50)


def test_example_instance_file_round_trip():
    values = example_instance().values()
    assert tuple(parse_instance(format_instance(values))) == values


def test_example_certificate_pins_optimum():
    seq = example_instance()
    assert verify_certificate(seq, example_certificate()) == 11
    assert floor_load_bound(seq) == 11


def test_smalls_first_structure():
    seq = smalls_first_family(3)
    assert seq.n == 18
    assert seq.values()[:15] == (F(9, 100),) * 15
    assert seq.values()[15:] == (F(11, 20),) * 3
    assert total_load(seq) == 3
    assert floor_load_bound(seq) == 3
    assert verify_certificate(seq, smalls_first_certificate(3)) == 3


def test_smalls_first_rejects_bad_parameters():
    with pytest.raises(DomainError):
        smalls_first_family(3, big=F(11, 20), small=F(7, 100))  # ratio not integral
    with pytest.raises(DomainError):
        smalls_first_family(3, big=F(1, 4), small=F(9, 100))  # big below 1/2
    with pytest.raises(DomainError):
        smalls_first_family(3, big=F(11, 20), small=F(3, 10))  # small too large
    with pytest.raises(DomainError):
        smalls_first_family(-1)


@pytest.mark.parametrize("bins", [3, 6, 12])
@pytest.mark.parametrize("k", [3, 4])
def test_smalls_first_covered_matches_closed_form(bins, k):
    seq = smalls_first_family(bins)
    ordered = sorted(seq.values(), reverse=True)
    for m in range(bins + 1):
        x = F(1) if m == 0 else ordered[m - 1]
        covered = advice_dh_run(seq, k, m, x).covered_count
        assert covered == smalls_first_covered(bins, m)


def test_random_instance_is_deterministic():
    spec = RandomSpec(n=12, value_min=F(1, 100), value_max=F(99, 100), denominator_bound=100, seed=42)
    assert random_instance(spec).values() == random_instance(spec).values()
    other = RandomSpec(n=12, value_min=F(1, 100), value_max=F(99, 100), denominator_bound=100, seed=43)
    assert random_instance(spec).values() != random_instance(other).values()


def test_random_instance_respects_grid():
    spec = RandomSpec(n=200, value_min=F(1, 10), value_max=F(9, 10), denominator_bound=100, seed=7)
    values = random_instance(spec).values()
    assert len(values) == 200
    assert all(F(1, 10) <= v <= F(9, 10) for v in values)
    assert all(v.denominator <= 100 for v in values)


def test_random_instance_rejects_bad_range():
    with pytest.raises(DomainError):
        random_instance(RandomSpec(5, F(0), F(1, 2), 100, 1))
    with pytest.raises(DomainError):
        random_instance(RandomSpec(5, F(1, 2), F(3, 2), 100, 1))
    with pytest.raises(DomainError):
        random_instance(RandomSpec(5, F(1, 3), F(1, 2), 1, 1))


def test_random_instance_rejects_negative_n(capsys):
    with pytest.raises(DomainError):
        random_instance(RandomSpec(-5, F(1, 100), F(99, 100), 100, 1))
    assert main(["gen", "random", "--n", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
