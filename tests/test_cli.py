import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bincover
from bincover.cli import CSV_COLUMNS, main
from bincover.generators import example_instance
from bincover.model import format_instance, save_instance
from bincover.optimal import format_certificate
from bincover.generators import example_certificate

F = Fraction


def write_example(tmp_path):
    path = tmp_path / "example.txt"
    save_instance(path, example_instance().values())
    return path


def test_gen_example_writes_instance(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    cert = tmp_path / "inst.cert"
    assert main(["gen", "example", "--out", str(out), "--emit-certificate", str(cert)]) == 0
    assert out.read_text() == format_instance(example_instance().values())
    assert cert.read_text() == format_certificate(example_certificate())


def test_gen_to_stdout(capsys):
    assert main(["gen", "smalls-first", "--bins", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["9/100"] * 5 + ["11/20"]


def test_run_adh_reproduces_reference(tmp_path, capsys):
    instance = write_example(tmp_path)
    cert = tmp_path / "opt.cert"
    cert.write_text(format_certificate(example_certificate()))
    csv_path = tmp_path / "report.csv"
    code = main([
        "run", str(instance), "--strategy", "adh", "--k", "3",
        "--m", "2", "--x", "4/5", "--certificate", str(cert), "--csv", str(csv_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "covered   9" in out
    assert "opt       11 (exact)" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    row = lines[1].split(",")
    assert row[:10] == ["example", "28", "3", "adh", "2", "4", "5", "9", "11", "exact"]
    assert row[10] == "true"
    assert row[11:13] == ["9", "11"]
    assert row[13] == ""  # ms column stays empty for reproducibility


def test_run_dnf(tmp_path, capsys):
    instance = write_example(tmp_path)
    assert main(["run", str(instance), "--strategy", "dnf"]) == 0
    assert "covered   8" in capsys.readouterr().out


def test_run_empty_instance(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    assert main(["run", str(path), "--strategy", "dh", "--k", "3"]) == 0
    assert "covered   0" in capsys.readouterr().out


def test_run_normalizes_units(tmp_path, capsys):
    path = tmp_path / "units.txt"
    path.write_text("1\n0.5\n0.5\n")
    assert main(["run", str(path), "--strategy", "dnf"]) == 0
    out = capsys.readouterr().out
    assert "covered   2" in out
    assert "prepacked" in out


def test_oracle_and_tape_round_trip(tmp_path, capsys):
    instance = write_example(tmp_path)
    tape = tmp_path / "advice.tape"
    assert main(["oracle", str(instance), "--k", "3", "--emit-tape", str(tape)]) == 0
    oracle_out = capsys.readouterr().out
    assert "m        6" in oracle_out
    assert "covered  10" in oracle_out
    assert "m=2" in oracle_out

    assert main(["decode-advice", "--tape", str(tape)]) == 0
    decode_out = capsys.readouterr().out
    assert "m    6" in decode_out
    assert "x_m  11/20" in decode_out

    assert main(["run", str(instance), "--strategy", "adh", "--k", "3", "--tape", str(tape)]) == 0
    assert "covered   10" in capsys.readouterr().out


def test_run_oracle_advice(tmp_path, capsys):
    instance = write_example(tmp_path)
    assert main(["run", str(instance), "--strategy", "adh", "--k", "3", "--oracle"]) == 0
    assert "covered   10" in capsys.readouterr().out


def test_oracle_on_empty_instance(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert main(["oracle", str(path), "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "m        0" in out
    assert "x_m      1" in out
    assert "covered  0" in out


def test_opt_with_certificate(tmp_path, capsys):
    instance = write_example(tmp_path)
    cert = tmp_path / "opt.cert"
    cert.write_text(format_certificate(example_certificate()))
    assert main(["opt", str(instance), "--certificate", str(cert)]) == 0
    assert "OPT = 11 (certificate 11 = floor bound 11)" in capsys.readouterr().out


def test_opt_emits_the_pinning_certificate(tmp_path, capsys):
    instance = write_example(tmp_path)
    cert = tmp_path / "opt.cert"
    cert.write_text(format_certificate(example_certificate()))
    out = tmp_path / "out.cert"
    assert main(["opt", str(instance), "--certificate", str(cert), "--emit-certificate", str(out)]) == 0
    assert f"certificate written to {out}" in capsys.readouterr().out
    assert out.read_text() == cert.read_text()


def test_opt_exact_small_instance(tmp_path, capsys):
    path = tmp_path / "small.txt"
    path.write_text("0.5\n0.5\n0.5\n0.5\n")
    assert main(["opt", str(path)]) == 0
    assert "OPT = 2 (exact" in capsys.readouterr().out


def test_opt_over_limit_is_bound_only(tmp_path, capsys):
    instance = write_example(tmp_path)
    assert main(["opt", str(instance)]) == 4
    assert "bound only" in capsys.readouterr().out


def test_encode_decode_cli(tmp_path, capsys):
    tape = tmp_path / "t.tape"
    assert main(["encode-advice", "--m", "2", "--x", "4/5", "--tape", str(tape)]) == 0
    bits = capsys.readouterr().out.strip()
    assert set(bits) <= {"0", "1"}
    assert main(["decode-advice", "--bits", bits]) == 0
    out = capsys.readouterr().out
    assert "m    2" in out
    assert "x_m  4/5" in out


@pytest.mark.parametrize("bits", ["11", "10x", "10110x0"], ids=["truncated", "non-binary", "non-binary-late"])
def test_decode_malformed_exits_2(capsys, bits):
    assert main(["decode-advice", "--bits", bits]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed advice:")
    if bits.strip("01"):
        assert "bit string may contain only 0 and 1" in err


def test_usage_errors_exit_1(tmp_path, capsys):
    instance = write_example(tmp_path)
    assert main(["run", str(instance), "--strategy", "dh"]) == 1  # missing --k
    capsys.readouterr()
    assert main(["run", str(instance), "--strategy", "nope"]) == 1
    capsys.readouterr()
    code = main([
        "run", str(instance), "--strategy", "adh", "--k", "3",
        "--oracle", "--m", "1", "--x", "1/2",
    ])
    assert code == 1  # two advice sources
    capsys.readouterr()


def test_parse_errors_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0.5\nbogus\n")
    assert main(["run", str(path), "--strategy", "dnf"]) == 2
    assert "line 2" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.txt"), "--strategy", "dnf"]) == 2
    capsys.readouterr()


def test_rejected_certificate_exits_2(tmp_path, capsys):
    instance = write_example(tmp_path)
    cert = tmp_path / "bad.cert"
    cert.write_text("0 0\n")
    assert main(["opt", str(instance), "--certificate", str(cert)]) == 2
    assert "rejected" in capsys.readouterr().err


def test_verify_bounds_and_csv_determinism(tmp_path, capsys):
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    args = [
        "verify-bounds", "--example", "--smalls-first", "3,6",
        "--random", "5", "--seed", "11", "--nmax", "10", "--csv",
    ]
    assert main(args + [str(csv_a)]) == 0
    out = capsys.readouterr().out
    assert "all bounds and identities hold" in out
    assert "k=2:" in out and "k=3:" in out and "k=4:" in out
    assert main(args + [str(csv_b)]) == 0
    capsys.readouterr()
    assert csv_a.read_bytes() == csv_b.read_bytes()
    header = csv_a.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_verify_bounds_on_instance_directory(tmp_path, capsys):
    directory = tmp_path / "instances"
    directory.mkdir()
    (directory / "a.txt").write_text("0.5\n0.5\n0.3\n0.7\n")
    (directory / "b.txt").write_text("0.9\n0.2\n0.4\n0.6\n")
    assert main(["verify-bounds", "--instances", str(directory), "--k", "2,3"]) == 0
    assert "all bounds and identities hold" in capsys.readouterr().out


@pytest.mark.parametrize("first, opt", [("1", "2"), ("0", "1")], ids=["unit", "zero"])
def test_verify_bounds_on_values_outside_the_unit_interval(tmp_path, capsys, first, opt):
    # A unit value is prepacked and a zero dropped: neither is a t-item.
    directory = tmp_path / "instances"
    directory.mkdir()
    (directory / "a.txt").write_text(f"{first}\n0.5\n0.5\n0.3\n")
    csv_path = tmp_path / "report.csv"
    assert main(["verify-bounds", "--instances", str(directory), "--csv", str(csv_path)]) == 0
    assert "all bounds and identities hold" in capsys.readouterr().out
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert [(row[1], row[7], row[8], row[9]) for row in rows] == [("4", opt, opt, "exact")] * 3


@pytest.mark.parametrize(
    "command",
    [["opt", "{file}"], ["run", "{file}", "--strategy", "dnf"], ["oracle", "{file}", "--k", "3"],
     ["verify-bounds", "--instances", "{dir}"]],
    ids=["opt", "run", "oracle", "verify-bounds"],
)
def test_negative_value_exits_2(tmp_path, capsys, command):
    directory = tmp_path / "instances"
    directory.mkdir()
    path = directory / "negative.txt"
    path.write_text("-1/2\n0.9\n0.6\n0.5\n")
    assert main([part.format(file=path, dir=directory) for part in command]) == 2
    assert capsys.readouterr().err == f"error: {path}: line 1: negative item value -1/2\n"


@pytest.mark.parametrize(
    "text, command, message",
    [
        ("1e-5000\n0.5\n0.7\n", ["run", "{file}", "--strategy", "dnf"], "{file}: line 1: cannot parse '1e-5000'"),
        ("0.5\n0.7\n1E3\n", ["opt", "{file}"], "{file}: line 3: cannot parse '1E3'"),
        ("0.5\n0.7\n", ["run", "{file}", "--strategy", "adh", "--k", "3", "--m", "1", "--x", "1e-5000"],
         "cannot parse --x '1e-5000'"),
        ("", ["encode-advice", "--m", "1", "--x", "5e-1"], "cannot parse --x '5e-1'"),
        ("", ["gen", "smalls-first", "--bins", "2", "--big", "6e-1"], "cannot parse --big '6e-1'"),
        ("", ["gen", "random", "--n", "3", "--value-min", "1e-2"], "cannot parse --value-min '1e-2'"),
    ],
    ids=["instance-line", "instance-late-line", "x", "encode-x", "big", "value-min"],
)
def test_exponent_notation_exits_2(tmp_path, capsys, text, command, message):
    # Only p/q and finite decimals are values; an exponent is rejected
    # before it can expand to thousands of digits.
    path = tmp_path / "instance.txt"
    path.write_text(text)
    assert main([part.format(file=path) for part in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message.format(file=path)} as a rational")


def test_run_with_an_unprintable_bin_load_exits_2(tmp_path, capsys):
    # Each value has fewer digits than Python converts to a string, but the
    # first bin's load, their sum, has more; nothing may be printed before
    # the error.
    q = 10**2500 + 1
    path = tmp_path / "instance.txt"
    path.write_text(f"{(q + 1) // 2}/{q}\n{2**8299 + 1}/{2**8300}\n")
    assert main(["run", str(path), "--strategy", "dnf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: bin 0: its load has more digits than Python prints"
        f" ({sys.get_int_max_str_digits()}-digit limit for integer strings)\n"
    )


def test_gen_random_has_no_certificate(tmp_path, capsys):
    out = tmp_path / "r.txt"
    code = main([
        "gen", "random", "--n", "5", "--seed", "3",
        "--out", str(out), "--emit-certificate", str(tmp_path / "r.cert"),
    ])
    assert code == 1
    capsys.readouterr()


def test_verify_bounds_requires_instances(capsys):
    assert main(["verify-bounds"]) == 1
    capsys.readouterr()


def test_verify_bounds_rejects_unknown_k(capsys):
    assert main(["verify-bounds", "--example", "--k", "5"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (["run", "{example}", "--strategy", "adh", "--k", "3", "--m", "3", "--x", "0"], 2, "x_m must lie"),
        (["run", "{example}", "--strategy", "adh", "--k", "3", "--m", "0", "--x", "1/2"], 2, "sentinel"),
        (["run", "{example}", "--strategy", "adh", "--k", "3", "--m", "29", "--x", "1/2"], 2, "exceeds"),
        (["opt", "{four}", "--certificate", "{partial}"], 0, "OPT = 2 (exact"),
        (["verify-bounds", "--instances", "{sixteen}"], 4, "exceeds limit 15"),
    ],
    ids=["run-x-zero", "run-m-zero-no-sentinel", "run-m-above-n", "opt-partial-certificate", "verify-over-limit"],
)
def test_advice_domain_and_opt_pinning(tmp_path, capsys, argv, code, expected):
    sixteen = tmp_path / "big"
    sixteen.mkdir()
    (sixteen / "s.txt").write_text("0.5\n" * 16)
    (tmp_path / "four.txt").write_text("0.5\n" * 4)
    (tmp_path / "partial.cert").write_text("0 1\n")  # valid, one bin short of the floor bound 2
    paths = {
        "example": write_example(tmp_path),
        "four": tmp_path / "four.txt",
        "partial": tmp_path / "partial.cert",
        "sixteen": sixteen,
    }
    assert main([part.format(**paths) for part in argv]) == code
    captured = capsys.readouterr()
    assert expected in captured.out + captured.err


@pytest.mark.parametrize(
    "command", [["run", "{four}", "--strategy", "dnf"], ["opt", "{four}"], ["verify-bounds", "--instances", "{dir}"]]
)
def test_limit_above_cap_exits_1(tmp_path, capsys, command):
    # four items, so that even an uncapped limit would only start a tiny search
    (tmp_path / "four.txt").write_text("0.5\n" * 4)
    argv = [part.format(four=tmp_path / "four.txt", dir=tmp_path) for part in command]
    assert main(argv + ["--limit", "40"]) == 1
    assert "--limit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--smalls-first", "3,x"],
        ["--random", "2", "--nmin", "10", "--nmax", "5"],
        ["--random", "1", "--nmin", "-1", "--nmax", "-1"],
        ["--random", "1", "--denominator-bound", "0"],
        ["--random", "1", "--denominator-bound", "1"],
        ["--random", "1", "--denominator-bound", "2"],
        ["--random", "1", "--denominator-bound", "-3"],
    ],
    ids=[
        "smalls-first-not-int", "nmin-above-nmax", "negative-nmin",
        "denominator-bound-0", "denominator-bound-1", "denominator-bound-2", "denominator-bound-negative",
    ],
)
def test_verify_bounds_bad_flags_exit_1(capsys, flags):
    assert main(["verify-bounds", *flags]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "flags",
    [
        ["oracle", "--k", "1"],
        ["oracle", "--k", "-3"],
        ["run", "--strategy", "dh", "--k", "1"],
        ["run", "--strategy", "adh", "--k", "0", "--m", "1", "--x", "1/2"],
    ],
    ids=["oracle-k1", "oracle-k-negative", "run-dh-k1", "run-adh-k0"],
)
def test_k_below_two_exits_1(tmp_path, capsys, flags):
    instance = write_example(tmp_path)
    command, *rest = flags
    assert main([command, str(instance), *rest]) == 1
    k = rest[rest.index("--k") + 1]
    assert capsys.readouterr().err == f"error: k must be at least 2, got {k}\n"


def test_closed_pipe_exits_quietly(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("0.37\n" * 20_000)
    env = dict(os.environ, PYTHONPATH=str(Path(bincover.__file__).parents[1]))
    with subprocess.Popen(
        [sys.executable, "-m", "bincover.cli", "run", str(path), "--strategy", "dnf"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as process:
        # the report runs to hundreds of kB, well past a pipe buffer
        assert process.stdout.readline().startswith(b"instance")
        process.stdout.close()
        assert process.wait(timeout=60) == 1
        stderr = process.stderr.read().decode()
    assert "Traceback" not in stderr
