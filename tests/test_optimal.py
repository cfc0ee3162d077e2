import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _naive import bottom_up_opt, exhaustive_partition_opt, gap_deficiency
from bincover.cli import _pin_opt
from bincover.generators import RandomSpec, example_certificate, example_instance, random_instance
from bincover.model import Sequence
from bincover.optimal import (
    BOUND_SPECS,
    BoundSpec,
    Certificate,
    CertificateError,
    SizeLimitError,
    canonical_group_keys,
    check_bound,
    decompose,
    floor_load_bound,
    format_certificate,
    key_is_easy,
    key_is_gap,
    normalize_certificate,
    opt_exact,
    parse_certificate,
    verify_certificate,
    verify_count_identities,
)

F = Fraction

grid_values = st.fractions(min_value=F(1, 100), max_value=F(99, 100), max_denominator=100)


def seq_of(*values) -> Sequence:
    return Sequence.from_values(values)


# --- bounds on the optimum ---------------------------------------------------


def test_floor_load_bound_examples():
    assert floor_load_bound(example_instance()) == 11
    assert floor_load_bound(seq_of("0.5", "0.4")) == 0
    assert floor_load_bound(seq_of("0.5", "0.5", "0.5")) == 1


def test_opt_exact_examples():
    assert opt_exact(seq_of("0.5", "0.5", "0.5", "0.5"))[0] == 2
    # total load 2.0 but two covered bins would both need to hit exactly 1
    assert opt_exact(seq_of("0.6", "0.6", "0.3", "0.3", "0.2"))[0] == 1
    assert opt_exact(seq_of())[0] == 0


def test_opt_exact_refuses_large_instances():
    with pytest.raises(SizeLimitError):
        opt_exact(example_instance(), size_limit=15)


def test_opt_exact_certificate_is_valid():
    seq = seq_of("0.5", "0.5", "0.5", "0.5", "0.9", "0.2")
    opt, cert = opt_exact(seq)
    assert verify_certificate(seq, cert) == opt


@given(st.lists(grid_values, max_size=9))
@settings(max_examples=40)
def test_opt_exact_matches_naive_oracle(values):
    seq = Sequence.from_values(values)
    opt, cert = opt_exact(seq)
    assert opt == exhaustive_partition_opt(values)
    assert verify_certificate(seq, cert) == opt
    assert opt <= floor_load_bound(seq)


prime_values = st.sampled_from([7, 11, 13, 101]).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda p: F(p, q))
)
mixed_values = st.one_of(
    grid_values,
    prime_values,
    st.just(F(0)),
    st.fractions(min_value=1, max_value=3, max_denominator=4),
)


@given(st.lists(mixed_values, max_size=12))
@settings(max_examples=80)
def test_opt_exact_matches_bottom_up_dp(values):
    seq = Sequence.from_values(values)
    assert opt_exact(seq) == bottom_up_opt(seq)


@pytest.mark.parametrize(
    "pattern",
    [[F(9, 100)], [F(3, 5)], [F(7, 10), F(1, 5)]] + [[F(p // 2 + 1, p)] for p in (3, 7, 11, 13, 101)],
    ids=lambda pattern: "+".join(map(str, pattern)),
)
def test_opt_exact_matches_bottom_up_dp_on_adversarial_families(pattern):
    for n in range(15):
        seq = Sequence.from_values((pattern * n)[:n])
        assert opt_exact(seq) == bottom_up_opt(seq), n


def test_solver_leaves_no_cyclic_garbage():
    # The search is freed by reference counting alone, like a strategy run.
    seq = random_instance(RandomSpec(12, F(1, 100), F(99, 100), 100, seed=4))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        opt, cert = opt_exact(seq)
        pin = _pin_opt(seq, Certificate(()), 12)
        assert pin.by == "solver" and (pin.lower, pin.cert) == (opt, cert)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_opt_equals_floor_on_example():
    seq = example_instance()
    assert verify_certificate(seq, example_certificate()) == floor_load_bound(seq) == 11


# --- certificates ------------------------------------------------------------


def test_verify_rejects_overlap():
    seq = seq_of("0.5", "0.5", "0.5")
    with pytest.raises(CertificateError, match="used twice"):
        verify_certificate(seq, Certificate(((0, 1), (1, 2))))


def test_verify_rejects_low_bin():
    with pytest.raises(CertificateError, match="below 1"):
        verify_certificate(seq_of("0.99"), Certificate(((0,),)))


def test_verify_rejects_bad_index():
    with pytest.raises(CertificateError, match="out of range"):
        verify_certificate(seq_of("0.5"), Certificate(((0, 7),)))


def test_certificate_file_round_trip():
    cert = example_certificate()
    assert parse_certificate(format_certificate(cert)) == cert
    assert parse_certificate("# note\n\n0 1\n") == Certificate(((0, 1),))


def test_certificate_parse_error():
    with pytest.raises(CertificateError, match="line 1"):
        parse_certificate("0 x\n")


# --- decomposition -----------------------------------------------------------


def test_decompose_example_instance():
    seq = example_instance()
    decomp = decompose(seq, example_certificate(), 3)
    assert decomp.groups == {(2, 2): 2, (2,): 5, (2, 3): 1, (3, 3): 3}
    assert decomp.small_only_count == 0
    assert decomp.total_bins == 11
    assert decomp.small_mass[(2,)] == F(137, 100)
    assert decomp.small_mass[(3, 3)] == F(4, 5)
    assert decomp.small_mass[(2, 3)] == 0
    assert decomp.easy[(2, 2)] and not decomp.gap[(2, 2)]
    assert not decomp.easy[(2,)] and not decomp.gap[(2,)]


def test_decompose_example_instance_k2():
    decomp = decompose(example_instance(), example_certificate(), 2)
    assert decomp.groups == {(2, 2): 2, (2,): 6}
    assert decomp.small_only_count == 3


def test_easy_and_gap_flags():
    assert key_is_easy((2, 2))
    assert not key_is_easy((2, 3))
    assert key_is_gap((3,)) and gap_deficiency((3,)) == F(1, 2)
    assert key_is_gap((4,)) and gap_deficiency((4,)) == F(2, 3)
    assert key_is_gap((3, 4)) and gap_deficiency((3, 4)) == F(1, 6)
    assert key_is_gap((4, 4)) and gap_deficiency((4, 4)) == F(1, 3)
    assert not key_is_gap((2,))  # boundary: reciprocal sum of t-1 equals 1


# --- canonical keys and counting identities ----------------------------------


def test_canonical_keys_k2():
    assert canonical_group_keys(2) == ((2,), (2, 2))


def test_canonical_keys_k3():
    assert canonical_group_keys(3) == (
        (2,), (3,), (2, 2), (2, 3), (3, 3), (2, 3, 3), (3, 3, 3)
    )


def test_canonical_keys_k4_match_transcribed_tables():
    keys = canonical_group_keys(4)
    assert len(keys) == 19
    # transcribed per-class coefficient tables for k = 4
    t2 = {(2,): 1, (2, 2): 2, (2, 3): 1, (2, 4): 1, (2, 3, 3): 1, (2, 3, 4): 1, (2, 4, 4): 1}
    t3 = {
        (3,): 1, (2, 3): 1, (3, 3): 2, (3, 4): 1, (2, 3, 3): 2, (2, 3, 4): 1,
        (3, 3, 3): 3, (3, 3, 4): 2, (3, 4, 4): 1, (3, 3, 4, 4): 2, (3, 4, 4, 4): 1,
    }
    t4 = {
        (4,): 1, (2, 4): 1, (3, 4): 1, (4, 4): 2, (2, 3, 4): 1, (2, 4, 4): 2,
        (3, 3, 4): 1, (3, 4, 4): 2, (4, 4, 4): 3, (3, 3, 4, 4): 2, (3, 4, 4, 4): 3,
        (4, 4, 4, 4): 4,
    }
    for t, table in ((2, t2), (3, t3), (4, t4)):
        computed = {key: key.count(t) for key in keys if t in key}
        assert computed == table


def test_identities_on_example_instance():
    seq = example_instance()
    cert = example_certificate()
    report = verify_count_identities(decompose(seq, cert, 3))
    assert report.ok
    assert report.placed == ((2, 10), (3, 7))
    assert report.sequence_totals == ((2, 10), (3, 7))
    report2 = verify_count_identities(decompose(seq, cert, 2))
    assert report2.ok
    assert report2.placed == ((2, 10),)


def test_identities_hold_trivially_on_empty_covering():
    seq = seq_of("0.5", "0.4")
    report = verify_count_identities(decompose(seq, Certificate(()), 3))
    assert report.ok
    assert report.placed == ((2, 0), (3, 0))
    assert report.sequence_totals == ((2, 1), (3, 1))


def test_identities_reject_noncanonical_key():
    seq = seq_of("0.5", "0.5", "0.5", "0.5")
    cert = Certificate(((0, 1, 2),))
    report = verify_count_identities(decompose(seq, cert, 2))
    assert not report.ok
    assert report.noncanonical_keys == ((2, 2, 2),)


def test_normalize_strips_easy_bins():
    seq = seq_of("0.5", "0.5", "0.3", "0.6", "0.2", "0.2")
    cert = Certificate(((0, 1, 2), (3, 4, 5)))
    normalized = normalize_certificate(seq, cert, 2)
    assert normalized.bins[0] == (0, 1)  # easy core keeps the two 2-items
    assert normalized.bins[1] == (3, 4, 5)  # non-easy bin stays whole
    assert verify_certificate(seq, normalized) == 2


def test_normalize_keeps_minimal_easy_core():
    # (2,3,3) is minimally easy: 1/2 + 1/3 + 1/3 >= 1 but no two suffice,
    # so all three type items stay and only the small item is shed
    seq = seq_of("0.55", "0.45", "0.45", "0.1")
    cert = Certificate(((0, 1, 2, 3),))
    normalized = normalize_certificate(seq, cert, 3)
    assert normalized.bins[0] == (0, 1, 2)


@given(st.lists(grid_values, min_size=2, max_size=10), st.integers(min_value=2, max_value=4))
@settings(max_examples=40)
def test_normalized_certificates_satisfy_identities(values, k):
    seq = Sequence.from_values(values)
    opt, cert = opt_exact(seq)
    normalized = normalize_certificate(seq, cert, k)
    assert verify_certificate(seq, normalized) == opt
    decomp = decompose(seq, normalized, k)
    assert decomp.total_bins == opt
    canonical = set(canonical_group_keys(k))
    assert set(decomp.groups) <= canonical
    assert verify_count_identities(decomp).ok


@given(st.lists(grid_values, min_size=2, max_size=10), st.integers(min_value=2, max_value=4))
@settings(max_examples=40)
def test_gap_bins_carry_enough_small_mass(values, k):
    seq = Sequence.from_values(values)
    _, cert = opt_exact(seq)
    decomp = decompose(seq, cert, k)
    for key, count in decomp.groups.items():
        if decomp.gap[key]:
            assert decomp.small_mass[key] >= count * gap_deficiency(key)


# --- bound checks -------------------------------------------------------------


def test_bound_spec_table():
    assert BOUND_SPECS[2] == BoundSpec(2, F(3, 5), F(19, 15))
    assert BOUND_SPECS[3] == BoundSpec(3, F(9, 14), F(97, 42))
    assert BOUND_SPECS[4] == BoundSpec(4, F(2, 3), F(173, 60))


def test_check_bound_examples():
    assert check_bound(9, 11, BOUND_SPECS[3])  # 9 >= 99/14 - 97/42 = 100/21
    assert check_bound(0, 0, BOUND_SPECS[2])
    assert check_bound(2, 3, BOUND_SPECS[4])
    assert not check_bound(0, 10, BOUND_SPECS[2])
