"""The four benchmark workloads: their inputs, their operations and the
checks on every operation's output.

Each workload builds its inputs from the seed, writes them under a work
directory and lists the CLI operations of one round.  The benchmark repeats
whole rounds.  Checks run outside the timed section and use the
benchmark's own arithmetic where it can (tape decoding, order statistics,
load bounds, an exact solver written separately from ``opt_exact``); the
sweep entries are compared with direct ``advice_dh_run`` calls, the
step-by-step reference emulator.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

HALF = Fraction(1, 2)

# The paper's guarantees covered >= ratio * OPT - additive, copied here so
# the CSV's bound_ok column is checked against numbers the program does not supply.
BOUNDS = {
    2: (Fraction(3, 5), Fraction(19, 15)),
    3: (Fraction(9, 14), Fraction(97, 42)),
    4: (Fraction(2, 3), Fraction(173, 60)),
}
EXAMPLE_OPT = 11


@dataclass
class Op:
    """One CLI operation of a round."""

    label: str
    argv: list[str]
    items: int
    check: object  # callable(result) -> list of problems
    golden: object  # callable(result) -> JSON-able summary


@dataclass
class Result:
    code: int | None
    out: str
    err: str
    error: str | None
    round: int


@dataclass
class Corpus:
    """The operations of each round: ``ops`` every round, unless ``vary``
    gives them by round index.  ``probe_values`` are values like the
    workload's, for the probe that scales its times."""

    ops: list[Op] = field(default_factory=list)
    vary: object = None  # callable(round index) -> list[Op]
    probe_values: tuple = ()

    def round(self, index: int) -> list[Op]:
        return self.vary(index) if self.vary else self.ops


def write_values(path: Path, values) -> None:
    path.write_text("".join(f"{value}\n" for value in values))


def scaled(values) -> tuple[list[int], int]:
    """The values as integers over their common denominator, and that denominator."""
    scale = math.lcm(*(value.denominator for value in values))
    return [value.numerator * (scale // value.denominator) for value in values], scale


def floor_load(values) -> int:
    weights, scale = scaled(values)
    return sum(weights) // scale


def descending(values) -> list[Fraction]:
    weights, _ = scaled(values)
    return [values[i] for i in sorted(range(len(values)), key=weights.__getitem__, reverse=True)]


def decode_tape(bits: str) -> tuple[int, Fraction]:
    """Decode the three self-delimited fields (m, numerator, denominator)."""
    position = 0

    def field_value() -> int:
        nonlocal position
        width = 0
        while bits[position] == "1":
            width += 1
            position += 1
        position += 1
        length = int(bits[position:position + width], 2) if width else 0
        position += width
        value = int(bits[position:position + length], 2) if length else 0
        position += length
        return value

    m, numerator, denominator = field_value(), field_value(), field_value()
    if position != len(bits):
        raise ValueError(f"{len(bits) - position} bits left after the payload")
    return m, Fraction(numerator, denominator)


def reference_opt(values: list[Fraction]) -> int:
    """Maximum number of disjoint covering subsets, by memoized search.

    Written apart from ``optimal.opt_exact``: it branches on the highest
    remaining item (leave it out, or close a bin with it) and stops a branch
    once it reaches floor(load).
    """
    weights, scale = scaled(values)

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        bound = sum(w for i, w in enumerate(weights) if mask >> i & 1) // scale
        if bound == 0:
            return 0
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        result = best(rest)
        members = [i for i in range(top) if rest >> i & 1]
        stack = [(0, weights[top], 0)]
        while stack and result < bound:
            start, load, chosen = stack.pop()
            for position in range(start, len(members)):
                item = members[position]
                grown = load + weights[item]
                if grown >= scale:
                    result = max(result, 1 + best(rest ^ (chosen | 1 << item)))
                else:
                    stack.append((position + 1, grown, chosen | 1 << item))
        return result

    return best((1 << len(values)) - 1)


def _field(text: str, key: str) -> str:
    match = re.search(rf"^{key}\s+(\S+)", text, re.MULTILINE)
    if match is None:
        raise ValueError(f"no {key!r} line in the output")
    return match.group(1)


def _exit_problems(result: Result) -> list[str]:
    if result.error is not None:
        return [f"raised {result.error}"]
    if result.code != 0:
        return [f"exit code {result.code}: {result.err.strip()[:200]}"]
    return []


# --------------------------------------------------------------- oracle-*

# Operations of about a second: the machine's speed changes on a scale of
# seconds, and short operations let each one be timed many times in a run.
ORACLE_ITEMS = 300
SMALLS_FIRST_BINS = 50

_SWEEP_LINE = re.compile(r"^\s+m=(\d+)\s+x_m=(\S+)\s+covered=(\d+)$", re.MULTILINE)


def _oracle_ops(bc, directory: Path, name: str, values: list[Fraction], k: int, seed) -> list[Op]:
    """``oracle --emit-tape`` then ``run --tape`` on one instance, with checks."""
    path = directory / f"{name}.txt"
    tape = directory / f"{name}.tape"
    write_values(path, values)
    ordered = descending(values)
    twos = sum(1 for value in values if value >= HALF)
    floor_bound = floor_load(values)
    sequence = bc.model.Sequence.from_values(values)
    latest: dict = {}

    def reference_covered(m: int, x: Fraction) -> int:
        return bc.strategies.advice_dh_run(sequence, k, m, x).covered_count

    def check_oracle(result: Result) -> list[str]:
        problems = _exit_problems(result)
        if problems:
            return problems
        m = int(_field(result.out, "m"))
        x = Fraction(_field(result.out, "x_m"))
        covered = int(_field(result.out, "covered"))
        latest.clear()
        latest.update(m=m, x=x, covered=covered, bits=tape.read_text().strip())
        if decode_tape(latest["bits"]) != (m, x):
            problems.append(f"tape decodes to {decode_tape(latest['bits'])}, printed ({m}, {x})")
        if x != (Fraction(1) if m == 0 else ordered[m - 1]):
            problems.append(f"x_m {x} is not the {m}-th largest value")
        if covered > floor_bound:
            problems.append(f"covered {covered} exceeds floor(load) {floor_bound}")
        sweep = {int(a): (Fraction(b), int(c)) for a, b, c in _SWEEP_LINE.findall(result.out)}
        if sorted(sweep) != list(range(twos + 1)):
            return problems + [f"sweep lists m={sorted(sweep)[:3]}..., expected 0..{twos}"]
        for entry_m, (entry_x, _) in sweep.items():
            if entry_x != (Fraction(1) if entry_m == 0 else ordered[entry_m - 1]):
                problems.append(f"sweep m={entry_m}: x_m {entry_x} is not the m-th largest value")
                break
        best = max(c for _, c in sweep.values())
        if (covered, m) != (best, min(a for a, (_, c) in sweep.items() if c == best)):
            problems.append(f"advice m={m} covered={covered} is not the sweep's first maximum")
        chosen = random.Random(f"{seed}/{name}/{result.round}").randint(0, twos)
        for entry_m in sorted({0, m, chosen}):
            entry_x, entry_covered = sweep[entry_m]
            expected = reference_covered(entry_m, entry_x)
            if entry_covered != expected:
                problems.append(f"sweep m={entry_m} covered {entry_covered}, advice_dh_run gives {expected}")
        return problems

    def check_run(result: Result) -> list[str]:
        problems = _exit_problems(result)
        if problems:
            return problems
        covered = int(_field(result.out, "covered"))
        if not latest:
            return ["no checked oracle result to replay"]
        if covered != latest["covered"]:
            problems.append(f"replayed covered {covered} differs from the oracle's {latest['covered']}")
        return problems

    def golden_oracle(result: Result):
        sweep = "".join(f"{m} {x} {c}\n" for m, x, c in _SWEEP_LINE.findall(result.out))
        summary = {key: str(value) for key, value in latest.items()}
        return summary | {"sweep_sha256": hashlib.sha256(sweep.encode()).hexdigest()}

    def golden_run(result: Result):
        return {"covered": int(_field(result.out, "covered"))}

    return [
        Op(f"oracle {name} k={k}", ["oracle", str(path), "--k", str(k), "--emit-tape", str(tape)],
           len(values), check_oracle, golden_oracle),
        Op(f"run adh {name} k={k} --tape", ["run", str(path), "--strategy", "adh", "--k", str(k), "--tape", str(tape)],
           len(values), check_run, golden_run),
    ]


def build_oracle_grid(bc, seed: int, directory: Path, timed) -> Corpus:
    """300 random items on the 1/100 grid at k=3, half of them 2-items, and
    smalls-first N=50 (300 items) at k=4."""
    rng = random.Random(f"oracle-grid/{seed}")
    spec = bc.generators.RandomSpec
    with timed():
        twos = bc.generators.random_instance(spec(ORACLE_ITEMS // 2, HALF, Fraction(99, 100), 100, rng.randrange(2**32)))
        rest = bc.generators.random_instance(spec(ORACLE_ITEMS // 2, Fraction(1, 100), Fraction(49, 100), 100, rng.randrange(2**32)))
        family = bc.generators.smalls_first_family(SMALLS_FIRST_BINS)
    grid = list(twos.values() + rest.values())
    rng.shuffle(grid)
    return Corpus(
        _oracle_ops(bc, directory, "grid", grid, 3, seed)
        + _oracle_ops(bc, directory, f"smalls-first-{SMALLS_FIRST_BINS}", list(family.values()), 4, seed)
    )


def _primes(low: int, high: int) -> list[int]:
    return [p for p in range(low, high) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def coprime_values(rng: random.Random, count: int, twos: int) -> list[Fraction]:
    """``count`` values p/q, q a random prime in [101, 400); exactly ``twos``
    of them lie in [1/2, 1), the rest in ]0, 1/2[."""
    primes = _primes(101, 400)
    values = []
    for index in range(count):
        q = rng.choice(primes)
        low, high = ((q + 1) // 2, q - 1) if index < twos else (1, q // 2)
        values.append(Fraction(rng.randint(low, high), q))
    rng.shuffle(values)
    return values


def build_oracle_coprime(bc, seed: int, directory: Path, timed) -> Corpus:
    """Two instances of 300 items at k=3 with prime denominators, half of
    them 2-items.  The cost of the sweep varies with the primes drawn; two
    instances halve that variance from seed to seed."""
    rng = random.Random(f"oracle-coprime/{seed}")
    ops = []
    for index in range(2):
        with timed():
            values = coprime_values(rng, ORACLE_ITEMS, ORACLE_ITEMS // 2)
        ops += _oracle_ops(bc, directory, f"coprime-{index}", values, 3, seed)
    # Big-denominator sums speed up and slow down unlike grid ones.
    probe_values = tuple(coprime_values(random.Random(f"oracle-coprime/{seed}/probe"), 600, 300))
    return Corpus(ops, probe_values=probe_values)


# ---------------------------------------------------------- verify-corpus

VERIFY_KS = (2, 3, 4)
VERIFY_PER_SIZE = 8
VERIFY_SIZES = (12, 13, 14, 15)


def _verify_values(bc, seed: int, count: int, n: int) -> list[tuple[str, list[Fraction]]]:
    """The random instances ``verify-bounds --random count --nmin n --nmax n
    --seed seed`` builds, rebuilt from the same generator calls."""
    rng = random.Random(seed)
    instances = []
    for index in range(count):
        size = rng.randint(n, n)  # draws from rng as the CLI does
        spec = bc.generators.RandomSpec(size, Fraction(1, 100), Fraction(99, 100), 100, rng.randrange(2**32))
        instances.append((f"random-{seed}-{index:04d}", list(bc.generators.random_instance(spec).values())))
    return instances


def build_verify_corpus(bc, seed: int, directory: Path, timed) -> Corpus:
    """One ``verify-bounds`` per size n in 12..15, each on the example plus
    eight random instances of exactly n items.

    Each operation fixes n (``--nmin n --nmax n``): with n drawn from 12..15
    the 2^n search makes an operation's cost vary by a fifth from seed to
    seed.  Rounds come in pairs on the same instances, so each CSV is
    compared with its repeat, and every pair draws new instances, so that a
    run averages over many more of them than one round holds.
    """
    rounds: dict[int, list[Op]] = {}

    def vary(index: int) -> list[Op]:
        pair = index // 2
        if pair not in rounds:
            rng = random.Random(f"verify-corpus/{seed}/{pair}")
            rounds.clear()
            rounds[pair] = []
            for n in VERIFY_SIZES:
                verify_seed = rng.randrange(2**31)
                instances = [("example", list(bc.generators.example_instance().values()))]
                instances += _verify_values(bc, verify_seed, VERIFY_PER_SIZE, n)
                out = directory / f"verify-n{n}.csv"
                argv = ["verify-bounds", "--k", ",".join(map(str, VERIFY_KS)), "--example",
                        "--random", str(VERIFY_PER_SIZE), "--nmin", str(n), "--nmax", str(n),
                        "--seed", str(verify_seed), "--csv", str(out)]
                rounds[pair].append(_verify_op(f"verify-bounds n={n} pair={pair}", argv, out, instances))
        return rounds[pair]

    with timed():
        vary(0)
    return Corpus(vary=vary)


def _verify_op(label: str, argv: list[str], out: Path, instances) -> Op:
    first_csv: list[bytes] = []
    reference: dict[str, int] = {"example": EXAMPLE_OPT}

    def check(result: Result) -> list[str]:
        problems = _exit_problems(result)
        if problems:
            return problems
        data = out.read_bytes()
        if not first_csv:
            first_csv.append(data)
        elif data != first_csv[0]:
            problems.append("CSV differs from the first run of the same operation")
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        expected_rows = [(instance_id, k) for instance_id, _ in instances for k in VERIFY_KS]
        if [(row["instance_id"], int(row["k"])) for row in rows] != expected_rows:
            return problems + [f"CSV has {len(rows)} rows, expected one per instance and k ({len(expected_rows)})"]
        by_id = dict(instances)
        for row in rows:
            values = by_id[row["instance_id"]]
            covered, opt, k = int(row["covered"]), int(row["opt"]), int(row["k"])
            if row["instance_id"] not in reference:
                reference[row["instance_id"]] = reference_opt(values)
            where = f"{row['instance_id']} k={k}"
            if int(row["n"]) != len(values):
                problems.append(f"{where}: n={row['n']}, expected {len(values)}")
            if opt != reference[row["instance_id"]]:
                problems.append(f"{where}: opt {opt}, the reference solver gives {reference[row['instance_id']]}")
            if not covered <= opt <= floor_load(values):
                problems.append(f"{where}: covered {covered}, opt {opt}, floor(load) {floor_load(values)} out of order")
            if opt and Fraction(int(row["ratio_num"]), int(row["ratio_den"])) != Fraction(covered, opt):
                problems.append(f"{where}: ratio column is not covered/opt")
            ratio, additive = BOUNDS[k]
            if (row["bound_ok"] == "true") != (covered >= ratio * opt - additive):
                problems.append(f"{where}: bound_ok={row['bound_ok']} disagrees with the bound")
        return problems

    def golden(result: Result):
        return {"csv_sha256": hashlib.sha256(out.read_bytes()).hexdigest()}

    return Op(label, argv, sum(len(values) for _, values in instances), check, golden)


# -------------------------------------------------------------- stream-run

STREAM_ITEMS = 20_000
_BIN_LINE = re.compile(r"^  bin (\d+) \((\S+)(?: t=(\d+))?\) load (\S+): (.*)$")


def build_stream_run(bc, seed: int, directory: Path, timed) -> Corpus:
    """One instance of 20k grid items run through dnf, dh and adh with
    explicit advice: no oracle sweep and no exact solve."""
    rng = random.Random(f"stream-run/{seed}")
    spec = bc.generators.RandomSpec(STREAM_ITEMS, Fraction(1, 100), Fraction(99, 100), 100, rng.randrange(2**32))
    with timed():
        values = list(bc.generators.random_instance(spec).values())
    path = directory / "stream.txt"
    write_values(path, values)
    twos = sum(1 for value in values if value >= HALF)
    m = rng.randint(twos // 8, twos // 4)
    x = descending(values)[m - 1]
    check = _stream_check(values)
    runs = [
        ("dnf", []),
        ("dh", ["--k", "3"]),
        ("adh", ["--k", "3", "--m", str(m), "--x", str(x)]),
    ]
    ops = [
        Op(f"run {strategy}", ["run", str(path), "--strategy", strategy, *extra],
           len(values), check, _stream_golden)
        for strategy, extra in runs
    ]
    return Corpus(ops)


def _parse_covering(out: str):
    covered = int(_field(out, "covered"))
    bins, leftover = [], []
    in_covering = False
    for line in out.splitlines():
        if line == "covering:":
            in_covering = True
        elif in_covering and line.startswith("  leftover: "):
            leftover = line[len("  leftover: "):].split()
        elif in_covering and line.startswith("  bin "):
            match = _BIN_LINE.match(line)
            if match is None:
                raise ValueError(f"cannot parse covering line {line[:80]!r}")
            _, kind, t, load, items = match.groups()
            bins.append((kind, int(t) if t else None, Fraction(load), items.split()))
    return covered, bins, leftover


def _stream_check(values: list[Fraction]):
    floor_bound = floor_load(values)
    weights, scale = scaled(values)
    weight_of = {str(value): weight for value, weight in zip(values, weights)}
    expected: list[Counter] = []  # the input multiset, built at the first check

    def check(result: Result) -> list[str]:
        problems = _exit_problems(result)
        if problems:
            return problems
        if not expected:
            expected.append(Counter(str(value) for value in values))
        covered, bins, leftover = _parse_covering(result.out)
        if covered != len(bins):
            problems.append(f"covered {covered} but {len(bins)} bins listed")
        if covered > floor_bound:
            problems.append(f"covered {covered} exceeds floor(load) {floor_bound}")
        seen = Counter(leftover)
        for kind, t, load, items in bins:
            seen.update(items)
            sizes = [weight_of[item] for item in items]  # KeyError: a value not in the input
            total = sum(sizes)
            if Fraction(total, scale) != load or total < scale:
                problems.append(f"{kind} bin has load {load} over items summing to {Fraction(total, scale)}")
            elif kind != "critical" and total - sizes[-1] >= scale:
                problems.append(f"{kind} bin stayed open after its load reached 1")
            elif kind == "t-bin" and len(sizes) != t:
                problems.append(f"t-bin t={t} closed with {len(sizes)} items")
            if len(problems) > 5:
                break
        if seen != expected[0]:
            problems.append("items in bins and leftover differ from the input multiset")
        return problems

    return check


def _stream_golden(result: Result):
    covered, bins, leftover = _parse_covering(result.out)
    return {"covered": covered, "leftover": len(leftover)}


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    build: object  # callable(modules, seed, directory, timed) -> Corpus
    warm_up: list[list[str]]  # argv templates; {dir} is the work directory


WORKLOADS = {
    "oracle-grid": Workload(build_oracle_grid, [
        ["gen", "random", "--n", "60", "--seed", "1", "--out", "{dir}/warm.txt"],
        ["oracle", "{dir}/warm.txt", "--k", "3", "--emit-tape", "{dir}/warm.tape"],
        ["run", "{dir}/warm.txt", "--strategy", "adh", "--k", "3", "--tape", "{dir}/warm.tape"],
    ]),
    "oracle-coprime": Workload(build_oracle_coprime, [
        ["gen", "random", "--n", "60", "--seed", "1", "--denominator-bound", "997", "--out", "{dir}/warm.txt"],
        ["oracle", "{dir}/warm.txt", "--k", "3", "--emit-tape", "{dir}/warm.tape"],
        ["run", "{dir}/warm.txt", "--strategy", "adh", "--k", "3", "--tape", "{dir}/warm.tape"],
    ]),
    "verify-corpus": Workload(build_verify_corpus, [
        ["verify-bounds", "--k", "2,3,4", "--example", "--random", "2", "--nmin", "10", "--nmax", "10",
         "--csv", "{dir}/warm.csv"],
    ]),
    "stream-run": Workload(build_stream_run, [
        ["gen", "random", "--n", "2000", "--seed", "1", "--out", "{dir}/warm.txt"],
        ["run", "{dir}/warm.txt", "--strategy", "dnf"],
        ["run", "{dir}/warm.txt", "--strategy", "dh", "--k", "3"],
        ["run", "{dir}/warm.txt", "--strategy", "adh", "--k", "3", "--m", "20", "--x", "3/5"],
    ]),
}
