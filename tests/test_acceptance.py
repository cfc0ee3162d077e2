"""Acceptance suite: each criterion prints one PASS/FAIL line.

Criterion 5 runs the oracle sweep with k = 4 on the smalls-first family
(5N smalls of 9/100, then N bigs of 11/20, optimum exactly N) and checks
three things: the k = 4 guarantee covered >= 2/3 * OPT - 173/60, the true
cap covered <= floor(load) = N, and every entry of the sweep table against
the hand-derived count in ``_naive.smalls_first_covered``.  The family
fills its optimal bins exactly, so with m = N each critical bin takes five
smalls (virtual load 11/20 + 45/100 = 1) and later one big item, replicating
the optimum item for item: the oracle picks m = N and reaches ratio 1.  No
cap below N can hold on an exact-fill family; the 2/3 of the paper is a
lower bound on what the strategy covers, not an upper one.
"""

import math
import random
from fractions import Fraction

import pytest

from _naive import exhaustive_partition_opt, smalls_first_covered, total_load
from bincover.cli import main
from bincover.codec import (
    AdvicePayload,
    TapeCursor,
    decode_advice,
    decode_self_delim,
    encode_advice,
    encode_self_delim,
    minimal_binary,
)
from bincover.generators import (
    RandomSpec,
    example_certificate,
    example_instance,
    random_instance,
    smalls_first_family,
)
from bincover.model import Sequence, save_instance
from bincover.optimal import (
    BOUND_SPECS,
    check_bound,
    decompose,
    floor_load_bound,
    normalize_certificate,
    opt_exact,
    verify_certificate,
    verify_count_identities,
)
from bincover.oracle import compute_advice
from bincover.strategies import advice_dh_run, dnf_run

F = Fraction

MASTER_SEED = 20260810


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# --- criterion 1: reference reproduction -------------------------------------


def test_criterion_1_example_reproduction():
    seq = example_instance()
    covering = advice_dh_run(seq, 3, 2, F(4, 5))
    cert_bins = verify_certificate(seq, example_certificate())
    floor = floor_load_bound(seq)
    ok = covering.covered_count == 9 and cert_bins == 11 and floor == 11
    report("1", ok, f"adh covers {covering.covered_count} (want 9); certificate {cert_bins} = floor {floor} pins OPT")
    assert covering.covered_count == 9
    assert cert_bins == 11 == floor


# --- criterion 2: oracle sweep ------------------------------------------------


def test_criterion_2_oracle_sweep():
    result = compute_advice(example_instance(), 3)
    ok = result.covered >= 9 and (2, 9) in result.sweep
    report("2", ok, f"oracle covers {result.covered} at m={result.m}; sweep contains (2,9)")
    assert result.covered >= 9
    assert (2, 9) in result.sweep


# --- criteria 3 + 7: random bound suite and count identities -------------------


@pytest.fixture(scope="module")
def random_corpus():
    rng = random.Random(MASTER_SEED)
    corpus = []
    for index in range(500):
        n = rng.randint(4, 12)
        seq = random_instance(
            RandomSpec(n=n, value_min=F(1, 100), value_max=F(99, 100),
                       denominator_bound=100, seed=rng.randrange(2**32))
        )
        opt, cert = opt_exact(seq)
        corpus.append((index, seq, opt, cert))
    return corpus


def test_criterion_3_bound_suite(random_corpus):
    cross_checked = 0
    violations = []
    for index, seq, opt, cert in random_corpus:
        assert verify_certificate(seq, cert) == opt
        assert opt <= floor_load_bound(seq)
        if seq.n <= 10:
            assert opt == exhaustive_partition_opt(seq.values())
            cross_checked += 1
        for k in (2, 3, 4):
            covered = compute_advice(seq, k).covered
            if not check_bound(covered, opt, BOUND_SPECS[k]):
                violations.append((index, k, covered, opt))
    ok = not violations and len(random_corpus) >= 500 and cross_checked > 0
    report(
        "3", ok,
        f"{len(random_corpus)} instances x k in (2,3,4): {len(violations)} bound violations; "
        f"{cross_checked} instances cross-checked against the brute-force oracle",
    )
    assert len(random_corpus) >= 500
    assert violations == []
    assert cross_checked > 0


def test_criterion_7_count_identities(random_corpus):
    failures = []
    for index, seq, opt, cert in random_corpus:
        for k in (2, 3, 4):
            normalized = normalize_certificate(seq, cert, k)
            assert verify_certificate(seq, normalized) == opt
            outcome = verify_count_identities(decompose(seq, normalized, k))
            if not outcome.ok:
                failures.append((index, k, outcome))
    ok = not failures
    report("7", ok, f"identities hold on {len(random_corpus)} certificates x k in (2,3,4); {len(failures)} failures")
    assert failures == []


# --- criterion 4: single-lane lower bound with bounded items -------------------


def test_criterion_4_dnf_bounded_items():
    rng = random.Random(MASTER_SEED + 1)
    checked = 0
    violations = []
    for alpha in (F(1, 2), F(1, 3), F(1, 4)):
        hi = int(alpha * 100)
        for _ in range(500):
            n = rng.randint(1, 40)
            values = [F(rng.randint(1, hi), 100) for _ in range(n)]
            seq = Sequence.from_values(values)
            covered = dnf_run(seq).covered_count
            floor = math.floor(total_load(seq))
            if not covered > (floor - 1) / (1 + alpha):
                violations.append((alpha, values))
            checked += 1
    ok = not violations and checked == 1500
    report("4", ok, f"{checked} bounded-item runs across alpha in (1/2,1/3,1/4); {len(violations)} violations")
    assert violations == []


# --- criterion 5: smalls-first family, k = 4: the 2/3 guarantee, the
# --- floor-of-load cap and the exact sweep (see the module docstring) ---------


FAMILY_SIZES = (3, 6, 12, 30, 90, 300)


@pytest.fixture(scope="module")
def family_sweeps():
    return {bins: compute_advice(smalls_first_family(bins), 4) for bins in FAMILY_SIZES}


def _closed_form_sweep(bins: int) -> tuple[tuple[int, int], ...]:
    return tuple((m, smalls_first_covered(bins, m)) for m in range(bins + 1))


def test_criterion_5a_family_strategy_cap(family_sweeps):
    off_sweep = []
    below_bound = []
    above_floor = []
    for bins, result in family_sweeps.items():
        floor = floor_load_bound(smalls_first_family(bins))
        assert floor == bins
        if result.sweep != _closed_form_sweep(bins):
            off_sweep.append(bins)
        if not check_bound(result.covered, bins, BOUND_SPECS[4]):
            below_bound.append(bins)
        if result.covered > floor:
            above_floor.append(bins)
    ok = not (off_sweep or below_bound or above_floor)
    report(
        "5a", ok,
        f"N in {FAMILY_SIZES}, k=4: sweep off the closed form at {off_sweep or 'none'}; "
        f"below 2/3*OPT - 173/60 at {below_bound or 'none'}; above floor(load) = N at {above_floor or 'none'}",
    )
    assert off_sweep == []
    assert below_bound == []
    assert above_floor == []


def test_criterion_5b_family_ratio_at_300(family_sweeps):
    bins = 300
    result = family_sweeps[bins]
    expected = _closed_form_sweep(bins)
    best_covered = max(covered for _, covered in expected)
    best_m = min(m for m, covered in expected if covered == best_covered)
    ratio = F(result.covered, bins)
    guaranteed = check_bound(result.covered, bins, BOUND_SPECS[4])
    ok = (result.m, result.x_m, result.covered) == (best_m, F(11, 20), best_covered) and guaranteed
    report(
        "5b", ok,
        f"oracle picks m={result.m}, x_m={result.x_m} covering {result.covered} of {bins} "
        f"(closed form: m={best_m} covering {best_covered}); "
        f"ratio {ratio} {'meets' if guaranteed else 'misses'} the 2/3 guarantee",
    )
    assert (best_m, best_covered) == (bins, bins)
    assert smalls_first_covered(bins, bins - 1) == bins - 1
    assert (result.m, result.x_m, result.covered) == (best_m, F(11, 20), best_covered)
    assert guaranteed


# --- criterion 6: codec volume -------------------------------------------------


def test_criterion_6_codec_round_trips():
    rng = random.Random(MASTER_SEED + 2)
    for _ in range(10_000):
        length = rng.randint(0, 200)
        s = "".join(rng.choice("01") for _ in range(length))
        encoded = encode_self_delim(s)
        cursor = TapeCursor(encoded)
        assert decode_self_delim(cursor) == s
        assert cursor.position == len(encoded)
        assert len(encoded) == length + 2 * len(minimal_binary(length)) + 1
        if length >= 1:
            assert len(encoded) <= length + 2 * math.ceil(math.log2(length + 1)) + 1
    for _ in range(10_000):
        m = rng.randint(0, 10**6)
        if m == 0:
            x = F(1)
        else:
            den = rng.randint(1, 10**9)
            x = F(rng.randint(1, den), den)
        payload = AdvicePayload(m, x)
        bits = encode_advice(payload)
        cursor = TapeCursor(bits)
        assert decode_advice(cursor) == payload
        assert cursor.position == len(bits)
    report("6", True, "10000 bit strings and 10000 advice payloads round-trip; length law holds")


# --- criterion 8: determinism ---------------------------------------------------


def test_criterion_8_csv_determinism(tmp_path):
    instance = tmp_path / "example.txt"
    save_instance(instance, example_instance().values())

    def run_all(tag: str) -> bytes:
        blobs = []
        run_csv = tmp_path / f"run-{tag}.csv"
        assert main([
            "run", str(instance), "--strategy", "adh", "--k", "3",
            "--m", "2", "--x", "4/5", "--csv", str(run_csv),
        ]) == 0
        blobs.append(run_csv.read_bytes())
        dnf_csv = tmp_path / f"dnf-{tag}.csv"
        assert main(["run", str(instance), "--strategy", "dnf", "--csv", str(dnf_csv)]) == 0
        blobs.append(dnf_csv.read_bytes())
        verify_csv = tmp_path / f"verify-{tag}.csv"
        assert main([
            "verify-bounds", "--example", "--smalls-first", "3,6,12",
            "--random", "40", "--seed", "99", "--nmax", "12",
            "--csv", str(verify_csv),
        ]) == 0
        blobs.append(verify_csv.read_bytes())
        return b"\n".join(blobs)

    first = run_all("a")
    second = run_all("b")
    ok = first == second
    report("8", ok, f"repeated runs produced {'identical' if ok else 'DIFFERENT'} CSV bytes ({len(first)} bytes)")
    assert first == second
