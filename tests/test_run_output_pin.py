"""``run``'s report and covering, hashed and pinned.

Two instance files go through ``cli.main``: a seeded 3,000-item 1/100-grid
instance with values of at least 1 and zeros mixed in, so that prepacked
bins carry their attached zeros, and a 400-item instance over prime
denominators.  Each runs under Dual Next Fit, Dual Harmonic with k = 3 and
the advice strategy with k = 3 and explicit advice.  The combined standard
output, without the wall-time ``time ... ms`` lines, must hash to the
pinned digest, so any change to a report line, a bin id, a bin's exact load
or the order of its items shows up here.
"""

import hashlib
import random
import re
from fractions import Fraction

from bincover.cli import main
from bincover.generators import RandomSpec, random_instance
from bincover.model import save_instance

RUN_DIGEST = "847283bf0d110da7296fb7bb9f29b79484a3fd1de6de8a12dbd9a6878162605d"
TIME_LINE = re.compile(r"^time\s+\d+(\.\d+)? ms$")
PRIMES = (101, 103, 107, 109, 113)


def grid_values() -> list[Fraction]:
    values = list(random_instance(RandomSpec(3000, Fraction(1, 100), Fraction(99, 100), 100, seed=5)).values())
    rng = random.Random(13)
    for extra in [Fraction(1), Fraction(3, 2), Fraction(7, 4), Fraction(1), Fraction(0), Fraction(0), Fraction(0)]:
        values.insert(rng.randrange(len(values) + 1), extra)
    return values


def prime_values() -> list[Fraction]:
    rng = random.Random(17)
    values = []
    for _ in range(400):
        q = rng.choice(PRIMES)
        values.append(Fraction(rng.randint(1, q - 1), q))
    return values


RUNS = [
    ["--strategy", "dnf"],
    ["--strategy", "dh", "--k", "3"],
]


def test_run_output_is_pinned(tmp_path, capsys):
    output = []
    for name, values, advice in [
        ("grid", grid_values(), ["--m", "120", "--x", "7/10"]),
        ("primes", prime_values(), ["--m", "30", "--x", "509/997"]),
    ]:
        path = tmp_path / f"{name}.txt"
        save_instance(path, values)
        for flags in RUNS + [["--strategy", "adh", "--k", "3", *advice]]:
            assert main(["run", str(path), *flags]) == 0, flags
            output.extend(line for line in capsys.readouterr().out.splitlines() if not TIME_LINE.match(line))
    assert sum(line.startswith("  bin ") for line in output) > 1000
    digest = hashlib.sha256("\n".join(output).encode()).hexdigest()
    assert digest == RUN_DIGEST
