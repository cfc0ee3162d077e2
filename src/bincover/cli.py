"""Command line harness.

Subcommands: run, oracle, opt, gen, verify-bounds, encode-advice,
decode-advice.  Exit codes: 0 success, 1 usage (a ``--limit`` outside
0..MAX_SIZE_LIMIT, a ``--k`` below 2, a ``verify-bounds --denominator-bound``
below 3 and a negative ``gen random --n`` included) or standard output
closed early (as by ``| head``), 2 input parse (a ``run`` whose covering
holds a bin load of more digits than Python converts to a string
included), 3 bound or identity violation, 4 exact-solve limit exceeded.

CSV rows carry exact rationals as numerator/denominator pairs and are
byte-identical across repeated runs with the same seed and flags; for that
reason the ``ms`` column is left empty and wall time appears only in the
human-readable report.
"""

from __future__ import annotations

import argparse
import csv
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .codec import (
    AdvicePayload,
    TapeCursor,
    TapeError,
    decode_advice,
    encode_advice,
    read_tape,
    write_tape,
)
from .generators import (
    DEFAULT_BIG,
    DEFAULT_SMALL,
    RandomSpec,
    example_certificate,
    example_instance,
    random_instance,
    smalls_first_certificate,
    smalls_first_family,
)
from .model import (
    Covering,
    DomainError,
    Sequence,
    load,
    load_instance,
    merge_prepacked,
    normalize_sequence,
    parse_value,
    save_instance,
)
from .optimal import (
    BOUND_SPECS,
    Certificate,
    CertificateError,
    DEFAULT_SIZE_LIMIT,
    MAX_SIZE_LIMIT,
    check_bound,
    decompose,
    floor_load_bound,
    format_certificate,
    load_certificate,
    normalize_certificate,
    opt_exact,
    save_certificate,
    verify_certificate,
    verify_count_identities,
)
from .oracle import compute_advice
from .strategies import advice_dh_run, dh_run, dnf_run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VIOLATION = 3
EXIT_LIMIT = 4

OPT_EXACT = "exact"
OPT_BOUND = "bound"

CSV_COLUMNS = [
    "instance_id", "n", "k", "strategy", "m", "x_m_num", "x_m_den",
    "covered", "opt", "opt_kind", "bound_ok", "ratio_num", "ratio_den", "ms",
]


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class RunReport:
    """One strategy run against one instance, with everything needed to
    recompute its ratio and bound check from the row itself."""

    instance_id: str
    n: int
    k: int | None
    strategy: str
    m: int | None
    x_m: Fraction | None
    covered: int
    opt: int | None
    opt_kind: str
    bound_ok: bool | None
    ratio: Fraction | None
    wall_ms: float

    def csv_row(self) -> list[str]:
        return [
            self.instance_id,
            str(self.n),
            "" if self.k is None else str(self.k),
            self.strategy,
            "" if self.m is None else str(self.m),
            "" if self.x_m is None else str(self.x_m.numerator),
            "" if self.x_m is None else str(self.x_m.denominator),
            str(self.covered),
            "" if self.opt is None else str(self.opt),
            self.opt_kind,
            "" if self.bound_ok is None else str(self.bound_ok).lower(),
            "" if self.ratio is None else str(self.ratio.numerator),
            "" if self.ratio is None else str(self.ratio.denominator),
            "",  # ms stays empty so CSV output is reproducible byte for byte
        ]

    def lines(self) -> list[str]:
        parts = [f"instance  {self.instance_id} (n={self.n})"]
        advice = ""
        if self.m is not None and self.x_m is not None:
            advice = f", m={self.m}, x_m={self.x_m}"
        k_part = f" (k={self.k}{advice})" if self.k is not None else ""
        parts.append(f"strategy  {self.strategy}{k_part}")
        parts.append(f"covered   {self.covered}")
        if self.opt is not None:
            parts.append(f"opt       {self.opt} ({self.opt_kind})")
        if self.ratio is not None:
            parts.append(f"ratio     {self.ratio} ({float(self.ratio):.4f})")
        if self.bound_ok is not None and self.k in BOUND_SPECS:
            spec = BOUND_SPECS[self.k]
            parts.append(
                f"bound     covered >= {spec.ratio}*opt - {spec.additive}: "
                f"{'satisfied' if self.bound_ok else 'VIOLATED'}"
            )
        parts.append(f"time      {self.wall_ms:.1f} ms")
        return parts


def _write_csv(path: str | Path, reports: list[RunReport]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for report in reports:
            writer.writerow(report.csv_row())


def _load_sequence(path: str) -> Sequence:
    try:
        return Sequence.from_values(load_instance(path))
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot read instance {path!r}: {exc}") from exc
    except DomainError as exc:
        raise CliError(EXIT_PARSE, f"{path}: {exc}") from exc


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return parse_value(text.strip())
    except DomainError as exc:
        raise CliError(EXIT_PARSE, f"cannot parse {what} {text!r} as a rational") from exc


@dataclass(frozen=True)
class OptPin:
    """What is known of OPT: exactly ``lower`` when ``by`` is set, otherwise
    only ``lower <= OPT <= floor``."""

    lower: int  # OPT once pinned; else the certificate count, or 0
    floor: int  # floor of the total load, an upper bound on OPT
    by: str | None  # "certificate" or "solver"; None when OPT is not pinned
    cert: Certificate | None  # a covering with ``lower`` bins, when one is known


def _load_certificate(path: str | None) -> Certificate | None:
    if path is None:
        return None
    try:
        return load_certificate(path)
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot read certificate: {exc}") from exc
    except CertificateError as exc:
        raise CliError(EXIT_PARSE, f"certificate rejected: {exc}") from exc


def _pin_opt(raw_seq: Sequence, cert: Certificate | None, limit: int) -> OptPin:
    """Pin OPT: a certificate that meets the floor-of-load bound, else the
    exact search when n <= limit, else the bracket [certificate count, floor]."""
    floor_bound = floor_load_bound(raw_seq)
    count = 0
    if cert is not None:
        try:
            count = verify_certificate(raw_seq, cert)
        except CertificateError as exc:
            raise CliError(EXIT_PARSE, f"certificate rejected: {exc}") from exc
        if count == floor_bound:
            return OptPin(count, floor_bound, "certificate", cert)
    if raw_seq.n <= limit:
        opt, solved = opt_exact(raw_seq, limit)
        return OptPin(opt, floor_bound, "solver", solved)
    return OptPin(count, floor_bound, None, cert)


def _covering_lines(covering: Covering, scale: int) -> list[str]:
    lines = []
    for bin in covering.bins:
        values = " ".join(str(item.value) for item in bin.items)
        tag = f"{bin.kind}" + (f" t={bin.t}" if bin.t is not None else "")
        try:
            shown = str(load(bin, scale))
        except ValueError as exc:  # each value parsed within the limit, but their sum can exceed it
            raise CliError(
                EXIT_PARSE,
                f"bin {bin.id}: its load has more digits than Python prints"
                f" ({sys.get_int_max_str_digits()}-digit limit for integer strings)",
            ) from exc
        lines.append(f"  bin {bin.id} ({tag}) load {shown}: {values}")
    if covering.leftover:
        values = " ".join(str(item.value) for item in covering.leftover)
        lines.append(f"  leftover: {values}")
    return lines


def cmd_run(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    raw_seq = _load_sequence(args.instance)
    normalized = normalize_sequence(raw_seq)
    seq = normalized.sequence

    m: int | None = None
    x_m: Fraction | None = None
    k: int | None = None
    if args.strategy == "dnf":
        covering = dnf_run(seq)
    else:
        k = args.k
        if k is None:
            raise CliError(EXIT_USAGE, f"strategy {args.strategy} requires --k")
        _check_k(k)
        if args.strategy == "dh":
            covering = dh_run(seq, k)
        else:
            advice = _resolve_advice(args, seq, k)
            if advice.m > len(seq):
                raise CliError(EXIT_PARSE, f"advice m={advice.m} exceeds the {len(seq)} items to place")
            m, x_m = advice.m, advice.x_m
            covering = advice_dh_run(seq, k, m, x_m)
    covering = merge_prepacked(covering, normalized.prepacked)

    pin = _pin_opt(raw_seq, _load_certificate(args.certificate), args.limit)
    opt, opt_kind = (pin.lower, OPT_EXACT) if pin.by else (pin.floor, OPT_BOUND)
    ratio = None
    bound_ok = None
    if opt_kind == OPT_EXACT and opt:
        ratio = Fraction(covering.covered_count, opt)
    if opt_kind == OPT_EXACT and args.strategy == "adh" and k in BOUND_SPECS:
        bound_ok = check_bound(covering.covered_count, opt, BOUND_SPECS[k])

    report = RunReport(
        instance_id=Path(args.instance).stem,
        n=raw_seq.n,
        k=k,
        strategy=args.strategy,
        m=m,
        x_m=x_m,
        covered=covering.covered_count,
        opt=opt,
        opt_kind=opt_kind,
        bound_ok=bound_ok,
        ratio=ratio,
        wall_ms=(time.perf_counter() - started) * 1000,
    )
    covering_lines = _covering_lines(covering, raw_seq.scale)  # may fail, so before any output
    print("\n".join(report.lines()))
    if covering.prepacked_count:
        print(f"includes  {covering.prepacked_count} prepacked bin(s) from normalization")
    print("covering:")
    print("\n".join(covering_lines))
    if args.csv:
        _write_csv(args.csv, [report])
    return EXIT_OK


def _check_k(k: int) -> None:
    if k < 2:
        raise CliError(EXIT_USAGE, f"k must be at least 2, got {k}")


def _explicit_advice(m: int, x_text: str) -> AdvicePayload:
    try:
        return AdvicePayload(m, _parse_fraction(x_text, "--x"))
    except TapeError as exc:
        raise CliError(EXIT_PARSE, str(exc)) from exc


def _resolve_advice(args: argparse.Namespace, seq: Sequence, k: int) -> AdvicePayload:
    sources = [args.oracle, args.tape is not None, args.m is not None or args.x is not None]
    if sum(bool(source) for source in sources) != 1:
        raise CliError(EXIT_USAGE, "adh needs exactly one advice source: --oracle, --tape, or --m with --x")
    if args.oracle:
        result = compute_advice(seq, k)
        return AdvicePayload(result.m, result.x_m)
    if args.tape is not None:
        try:
            return decode_advice(TapeCursor(read_tape(args.tape)))
        except OSError as exc:
            raise CliError(EXIT_PARSE, f"cannot read tape: {exc}") from exc
        except TapeError as exc:
            raise CliError(EXIT_PARSE, f"malformed advice tape: {exc}") from exc
    if args.m is None or args.x is None:
        raise CliError(EXIT_USAGE, "explicit advice needs both --m and --x")
    return _explicit_advice(args.m, args.x)


def cmd_oracle(args: argparse.Namespace) -> int:
    _check_k(args.k)
    seq = normalize_sequence(_load_sequence(args.instance)).sequence
    result = compute_advice(seq, args.k)
    print(f"m        {result.m}")
    print(f"x_m      {result.x_m}")
    print(f"covered  {result.covered}")
    print("sweep:")
    for (m, covered), x in zip(result.sweep, result.thresholds):
        print(f"  m={m:<4d} x_m={str(x):<10s} covered={covered}")
    if args.emit_tape:
        write_tape(args.emit_tape, encode_advice(AdvicePayload(result.m, result.x_m)))
        print(f"tape written to {args.emit_tape}")
    return EXIT_OK


def cmd_opt(args: argparse.Namespace) -> int:
    raw_seq = _load_sequence(args.instance)
    pin = _pin_opt(raw_seq, _load_certificate(args.certificate), args.limit)
    if pin.by is None and args.certificate is not None:
        print(f"certificate {pin.lower} <= OPT <= floor bound {pin.floor} (not pinned)")
        return EXIT_OK
    if pin.by is None:
        print(f"OPT <= {pin.floor} (bound only: n={raw_seq.n} exceeds limit {args.limit})")
        return EXIT_LIMIT
    if pin.by == "certificate":
        print(f"OPT = {pin.lower} (certificate {pin.lower} = floor bound {pin.floor})")
    else:
        print(f"OPT = {pin.lower} (exact; floor bound {pin.floor})")
    if args.emit_certificate:
        save_certificate(args.emit_certificate, pin.cert)
        print(f"certificate written to {args.emit_certificate}")
    elif pin.by == "solver":
        sys.stdout.write(format_certificate(pin.cert))
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    cert = None
    if args.family == "example":
        seq = example_instance()
        cert = example_certificate()
    elif args.family == "smalls-first":
        if args.bins is None:
            raise CliError(EXIT_USAGE, "smalls-first requires --bins")
        big = _parse_fraction(args.big, "--big")
        small = _parse_fraction(args.small, "--small")
        try:
            seq = smalls_first_family(args.bins, big, small)
            cert = smalls_first_certificate(args.bins, big, small)
        except DomainError as exc:
            raise CliError(EXIT_USAGE, str(exc)) from exc
    else:
        if args.n is None:
            raise CliError(EXIT_USAGE, "random requires --n")
        spec = RandomSpec(
            n=args.n,
            value_min=_parse_fraction(args.value_min, "--value-min"),
            value_max=_parse_fraction(args.value_max, "--value-max"),
            denominator_bound=args.denominator_bound,
            seed=args.seed,
        )
        try:
            seq = random_instance(spec)
        except DomainError as exc:
            raise CliError(EXIT_USAGE, str(exc)) from exc
    if args.out:
        save_instance(args.out, seq.values())
    else:
        for value in seq.values():
            print(value)
    if args.emit_certificate:
        if cert is None:
            raise CliError(EXIT_USAGE, "no built-in certificate for random instances")
        save_certificate(args.emit_certificate, cert)
    return EXIT_OK


def _verify_instances(args: argparse.Namespace) -> list[tuple[str, Sequence, Certificate | None]]:
    instances: list[tuple[str, Sequence, Certificate | None]] = []
    if args.example:
        instances.append(("example", example_instance(), example_certificate()))
    if args.smalls_first:
        for bins in _int_list(args.smalls_first, "--smalls-first"):
            instances.append((f"smalls-first-{bins}", smalls_first_family(bins), smalls_first_certificate(bins)))
    if args.random:
        if not 0 <= args.nmin <= args.nmax:
            raise CliError(EXIT_USAGE, f"need 0 <= --nmin <= --nmax, got {args.nmin} and {args.nmax}")
        if args.denominator_bound < 3:  # d < 3 leaves no range 1/d < (d-1)/d to draw from
            raise CliError(EXIT_USAGE, f"--denominator-bound must be at least 3, got {args.denominator_bound}")
        rng = random.Random(args.seed)
        for index in range(args.random):
            n = rng.randint(args.nmin, args.nmax)
            spec = RandomSpec(
                n=n,
                value_min=Fraction(1, args.denominator_bound),
                value_max=Fraction(args.denominator_bound - 1, args.denominator_bound),
                denominator_bound=args.denominator_bound,
                seed=rng.randrange(2**32),
            )
            instances.append((f"random-{args.seed}-{index:04d}", random_instance(spec), None))
    if args.instances:
        directory = Path(args.instances)
        if not directory.is_dir():
            raise CliError(EXIT_PARSE, f"{directory} is not a directory")
        paths = list(directory.glob("*.txt"))
        paths.sort()  # file-name order keeps the report reproducible
        for path in paths:
            instances.append((path.stem, _load_sequence(str(path)), None))
    if not instances:
        raise CliError(EXIT_USAGE, "no instances: use --example, --smalls-first, --random or --instances")
    return instances


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"cannot parse {flag} {text!r}") from exc


def cmd_verify_bounds(args: argparse.Namespace) -> int:
    ks = _int_list(args.k, "--k")
    for k in ks:
        if k not in BOUND_SPECS:
            raise CliError(EXIT_USAGE, f"no bound spec for k={k}; choose among {list(BOUND_SPECS)}")

    reports: list[RunReport] = []
    violations: list[str] = []
    min_ratio: dict[int, Fraction | None] = {k: None for k in ks}

    for instance_id, raw_seq, cert in _verify_instances(args):
        started = time.perf_counter()
        pin = _pin_opt(raw_seq, cert, args.limit)
        if pin.by is None:
            raise CliError(
                EXIT_LIMIT, f"{instance_id}: n={raw_seq.n} exceeds limit {args.limit} and no certificate pins OPT"
            )
        opt, cert = pin.lower, pin.cert
        normalized = normalize_sequence(raw_seq)
        for k in ks:
            result = compute_advice(normalized.sequence, k)
            covered = result.covered + len(normalized.prepacked)
            spec = BOUND_SPECS[k]
            bound_ok = check_bound(covered, opt, spec)
            identity = verify_count_identities(decompose(raw_seq, normalize_certificate(raw_seq, cert, k), k))
            if not bound_ok:
                violations.append(
                    f"{instance_id} k={k}: covered {covered} < {spec.ratio}*{opt} - {spec.additive}"
                )
            if not identity.ok:
                violations.append(f"{instance_id} k={k}: count identities failed: {identity}")
            ratio = Fraction(covered, opt) if opt else None
            if ratio is not None and (min_ratio[k] is None or ratio < min_ratio[k]):
                min_ratio[k] = ratio
            reports.append(
                RunReport(
                    instance_id=instance_id,
                    n=raw_seq.n,
                    k=k,
                    strategy="adh",
                    m=result.m,
                    x_m=result.x_m,
                    covered=covered,
                    opt=opt,
                    opt_kind=OPT_EXACT,
                    bound_ok=bound_ok,
                    ratio=ratio,
                    wall_ms=(time.perf_counter() - started) * 1000,
                )
            )

    if args.csv:
        _write_csv(args.csv, reports)
    instances_per_k = len(reports) // len(ks) if ks else 0
    for k in ks:
        ratio = min_ratio[k]
        shown = f"{ratio} ({float(ratio):.4f})" if ratio is not None else "n/a"
        print(f"k={k}: instances={instances_per_k} min_ratio={shown}")
    if violations:
        for line in violations:
            print(f"VIOLATION: {line}", file=sys.stderr)
        return EXIT_VIOLATION
    print("all bounds and identities hold")
    return EXIT_OK


def cmd_encode_advice(args: argparse.Namespace) -> int:
    bits = encode_advice(_explicit_advice(args.m, args.x))
    print(bits)
    if args.tape:
        write_tape(args.tape, bits)
    return EXIT_OK


def cmd_decode_advice(args: argparse.Namespace) -> int:
    if (args.tape is None) == (args.bits is None):
        raise CliError(EXIT_USAGE, "decode-advice needs exactly one of --tape or --bits")
    try:
        bits = read_tape(args.tape) if args.tape is not None else args.bits
        cursor = TapeCursor(bits)
        payload = decode_advice(cursor)
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot read tape: {exc}") from exc
    except TapeError as exc:
        raise CliError(EXIT_PARSE, f"malformed advice: {exc}") from exc
    print(f"m    {payload.m}")
    print(f"x_m  {payload.x_m}")
    print(f"bits consumed {cursor.position} of {len(bits)}")
    return EXIT_OK


def _add_limit(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--limit", type=int, choices=range(MAX_SIZE_LIMIT + 1), default=DEFAULT_SIZE_LIMIT, metavar="N",
        help=f"exact-solve size limit, at most {MAX_SIZE_LIMIT} (default {DEFAULT_SIZE_LIMIT})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bincover",
        description="Online bin covering strategies, advice oracle, and exact verification harness.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run a strategy on an instance file")
    run.add_argument("instance")
    run.add_argument("--strategy", choices=["dnf", "dh", "adh"], required=True)
    run.add_argument("--k", type=int)
    run.add_argument("--m", type=int)
    run.add_argument("--x", help="explicit x_m, e.g. 4/5")
    run.add_argument("--oracle", action="store_true", help="compute advice with the oracle")
    run.add_argument("--tape", help="read advice from a tape file")
    run.add_argument("--certificate", help="certificate file used to pin the optimum")
    _add_limit(run)
    run.add_argument("--csv", help="write the report as a CSV row")
    run.set_defaults(func=cmd_run)

    oracle = commands.add_parser("oracle", help="compute the best advice for an instance")
    oracle.add_argument("instance")
    oracle.add_argument("--k", type=int, required=True)
    oracle.add_argument("--emit-tape", help="write the advice tape to this path")
    oracle.set_defaults(func=cmd_oracle)

    opt = commands.add_parser("opt", help="solve or verify the optimal covering")
    opt.add_argument("instance")
    opt.add_argument(
        "--certificate",
        help="verify this certificate; if it falls short of the floor bound, solve exactly when n <= --limit",
    )
    _add_limit(opt)
    opt.add_argument("--emit-certificate", help="write the certificate that pins OPT to this path")
    opt.set_defaults(func=cmd_opt)

    gen = commands.add_parser("gen", help="generate an instance file")
    gen.add_argument("family", choices=["example", "smalls-first", "random"])
    gen.add_argument("--bins", type=int, help="smalls-first: number of optimal bins")
    gen.add_argument("--big", default=str(DEFAULT_BIG))
    gen.add_argument("--small", default=str(DEFAULT_SMALL))
    gen.add_argument("--n", type=int, help="random: number of items")
    gen.add_argument("--value-min", default="1/100")
    gen.add_argument("--value-max", default="99/100")
    gen.add_argument("--denominator-bound", type=int, default=100)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="instance file to write (default: stdout)")
    gen.add_argument("--emit-certificate", help="write the known optimal certificate")
    gen.set_defaults(func=cmd_gen)

    verify = commands.add_parser("verify-bounds", help="sweep instances and check bounds as inequalities")
    verify.add_argument("--k", default="2,3,4", help="comma-separated k values")
    verify.add_argument("--example", action="store_true")
    verify.add_argument("--smalls-first", help="comma-separated bin counts, e.g. 3,6,12")
    verify.add_argument("--random", type=int, help="number of random instances")
    verify.add_argument("--nmin", type=int, default=4)
    verify.add_argument("--nmax", type=int, default=12)
    verify.add_argument("--denominator-bound", type=int, default=100)
    verify.add_argument("--instances", help="directory of *.txt instance files")
    verify.add_argument("--seed", type=int, default=0)
    _add_limit(verify)
    verify.add_argument("--csv", help="write all reports to this CSV file")
    verify.set_defaults(func=cmd_verify_bounds)

    encode = commands.add_parser("encode-advice", help="encode (m, x_m) as a self-delimited tape")
    encode.add_argument("--m", type=int, required=True)
    encode.add_argument("--x", required=True)
    encode.add_argument("--tape", help="also write the tape to this path")
    encode.set_defaults(func=cmd_encode_advice)

    decode = commands.add_parser("decode-advice", help="decode an advice tape")
    decode.add_argument("--tape")
    decode.add_argument("--bits")
    decode.set_defaults(func=cmd_decode_advice)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage problems and 0 for --help
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader stopped early; send the unflushed rest to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
