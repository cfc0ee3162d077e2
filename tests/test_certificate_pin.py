"""The certificates the CLI writes, hashed and pinned.

``opt --emit-certificate`` runs through ``cli.main`` on three kinds of input:

- the bundled example with a certificate one bin short of its floor bound,
  which the solver cannot take over at n = 28, so nothing is written;
- seeded ``gen random`` instances with n = 10..15, solved outright;
- seeded instances with n = 10..15 over prime denominators, with zeros and
  values of at least 1 mixed in, each given an empty certificate, so that
  the solver pins OPT after the certificate falls short.

Then ``verify-bounds --k 2,3,4 --random 8 --nmin 14 --nmax 14 --seed 5
--csv`` runs once.  The standard output of every command, each certificate
file and the CSV must hash to the pinned digest, so any change to the value
the exact solver returns, or to which optimal covering it picks, shows up
here.
"""

import hashlib
import random
from fractions import Fraction
from pathlib import Path

from bincover.cli import main
from bincover.generators import example_certificate, example_instance
from bincover.model import save_instance
from bincover.optimal import Certificate, save_certificate

CERTIFICATE_DIGEST = "0f55aa699018927a2ee0a614d68f93e2e8be11cf03384bf426b4e39387a564f4"
PRIMES = (7, 11, 13, 17, 19, 23)


def mixed_values(n: int, rng: random.Random) -> list[Fraction]:
    values = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.1:
            values.append(Fraction(0))
        elif roll < 0.2:
            values.append(Fraction(rng.randint(4, 9), 4))
        else:
            q = rng.choice(PRIMES)
            values.append(Fraction(rng.randint(1, q - 1), q))
    return values


def test_emitted_certificates_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the report names the files it writes
    digest = hashlib.sha256()

    def record(code: int, argv: list[str], written: str | None = None) -> None:
        assert code == 0, argv
        digest.update(capsys.readouterr().out.encode())
        if written is not None:
            digest.update(Path(written).read_bytes())

    example = "example.txt"
    save_instance(example, example_instance().values())
    short = "short.cert"
    save_certificate(short, Certificate(example_certificate().bins[:-1]))
    argv = ["opt", example, "--certificate", short, "--emit-certificate", "never.cert"]
    record(main(argv), argv)
    assert not Path("never.cert").exists()

    rng = random.Random(29)
    for n in range(10, 16):
        for seed in (n, 100 + n):
            name = f"random-{n}-{seed}"
            argv = ["gen", "random", "--n", str(n), "--seed", str(seed), "--out", f"{name}.txt"]
            record(main(argv), argv)
            argv = ["opt", f"{name}.txt", "--emit-certificate", f"{name}.cert"]
            record(main(argv), argv, f"{name}.cert")
        name = f"mixed-{n}"
        save_instance(f"{name}.txt", mixed_values(n, rng))
        Path("empty.cert").write_text("")
        argv = [
            "opt", f"{name}.txt", "--certificate", "empty.cert",
            "--emit-certificate", f"{name}.cert",
        ]
        record(main(argv), argv, f"{name}.cert")

    argv = [
        "verify-bounds", "--k", "2,3,4", "--random", "8", "--nmin", "14", "--nmax", "14",
        "--seed", "5", "--csv", "report.csv",
    ]
    record(main(argv), argv, "report.csv")
    assert digest.hexdigest() == CERTIFICATE_DIGEST
