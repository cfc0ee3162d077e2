"""``replay`` traces over a fixed corpus, hashed and pinned.

Every step of every trace is rendered with ``repr(Placement)``, so a change
to any rule, bin id, exact load or virtual load in any strategy changes the
digest.  The corpus: the bundled example, a seeded 1/100-grid sequence and a
sequence over prime denominators; the strategies: Dual Next Fit, Dual
Harmonic for k = 2..4, and the advice strategy for k = 2..4 and m = 3, 12
with an x_m on the 1/100 grid and one whose prime denominator no item
shares.
"""

import hashlib
import random
from fractions import Fraction

from bincover.generators import RandomSpec, example_instance, random_instance
from bincover.model import Sequence
from bincover.strategies import StrategyConfig, replay

REPLAY_DIGEST = "c4289bef205c66cc12a77c78ba861a20fceda77d68214c7c70cb496b9639fbe7"
PRIMES = (101, 103, 107, 109, 113)


def corpus() -> list[Sequence]:
    grid = random_instance(RandomSpec(300, Fraction(1, 100), Fraction(99, 100), 100, seed=7))
    rng = random.Random(11)
    primes = []
    for _ in range(300):
        q = rng.choice(PRIMES)
        primes.append(Fraction(rng.randint(1, q - 1), q))
    return [example_instance(), grid, Sequence.from_values(primes)]


def configs() -> list[StrategyConfig]:
    found = [StrategyConfig("dnf")]
    found += [StrategyConfig("dh", k=k) for k in (2, 3, 4)]
    for x_m in (Fraction(3, 5), Fraction(509, 997)):
        for m in (3, 12):
            found += [StrategyConfig("adh", k=k, m=m, x_m=x_m) for k in (2, 3, 4)]
    return found


def test_replay_traces_are_pinned():
    digest = hashlib.sha256()
    steps = 0
    for seq in corpus():
        for config in configs():
            for placement in replay(seq, config):
                digest.update(repr(placement).encode() + b"\n")
                steps += 1
    assert steps == 628 * len(configs())
    assert digest.hexdigest() == REPLAY_DIGEST
