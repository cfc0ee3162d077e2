"""Closed-loop benchmark of the bincover CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It imports the program from ./src, builds
its inputs from --seed under .perfbench_out/, and drives
``bincover.cli.main(argv)`` in this one process and thread: one user issues
the workload's operations back to back, each after the previous returns,
in whole rounds, until the operations have taken --seconds.  Every output is
checked outside the timed section.  The last line of standard output is one
JSON object: the end-to-end metrics with --trace 0, the per-layer metrics
from spans around calls into each module with --trace 1.

Times are scaled to a reference speed.  On a shared machine the speed of
the same Python code drifts by a third within seconds, so a fixed probe
(``probe``, next-fit over values like the workload's) is timed just before
and just after each operation and each set-up, and the measured time is
multiplied by PROBE_REFERENCE_S over the mean of the two probes: a time "in
seconds" is the time on a machine where the probe takes PROBE_REFERENCE_S.
The unscaled throughput is printed too.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Result  # noqa: E402

MODULES = ("cli", "codec", "generators", "model", "optimal", "oracle", "strategies")
SETUP_REPEATS = 7
PROBE_REFERENCE_S = 0.003
GOLDEN = BENCH_DIR / "golden.json"
OUT_DIR = ROOT / ".perfbench_out"


class SetupError(Exception):
    """The program cannot be imported or a warm-up operation failed."""


GRID_SAMPLE = tuple(Fraction(i * 37 % 99 + 1, 100) for i in range(1, 600))


def probe(values=GRID_SAMPLE) -> float:
    """Seconds taken by a fixed piece of exact arithmetic shaped like a
    next-fit lane: classify each of ``values``, add the 3-items and larger,
    close at load 1.  The median of five runs with the garbage collector
    off, so that one collection or interrupt does not skew it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(5):
            started = time.perf_counter()
            load = Fraction(0)
            for value in values:
                reciprocal = 1 / value
                if -(-reciprocal.numerator // reciprocal.denominator) <= 3:
                    load += value
                    if load >= 1:
                        load = Fraction(0)
            times.append(time.perf_counter() - started)
        return statistics.median(times)
    finally:
        if collecting:
            gc.enable()


def scaled(run, values=GRID_SAMPLE):
    """Call ``run`` between two probes over ``values``; return its result,
    its seconds and its seconds at the reference speed."""
    before = probe(values)
    started = time.perf_counter()
    result = run()
    elapsed = time.perf_counter() - started
    after = probe(values)
    return result, elapsed, elapsed * 2 * PROBE_REFERENCE_S / (before + after)


def import_bincover():
    """Import bincover afresh from ./src and return its modules by name."""
    source = ROOT / "src"
    if not (source / "bincover" / "__init__.py").is_file():
        raise SetupError(f"no bincover package under {source}")
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))
    for name in [name for name in sys.modules if name == "bincover" or name.startswith("bincover.")]:
        del sys.modules[name]
    package = importlib.import_module("bincover")
    if Path(package.__file__).resolve().parent != (source / "bincover").resolve():
        raise SetupError(f"bincover was imported from {package.__file__}, not from {source}")
    return {name: importlib.import_module(f"bincover.{name}") for name in MODULES}


def invoke(cli, argv: list[str], round_index: int) -> Result:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a benchmark crash
            error = f"{type(exc).__name__}: {exc}"
    return Result(code, out.getvalue(), err.getvalue(), error, round_index)


@dataclass
class Setup:
    modules: dict
    corpus: object
    generator_s: float = 0.0


def set_up(workload, seed: int, directory: Path) -> Setup:
    """Import, build and write the inputs, and warm up."""
    setup = Setup({}, None)

    @contextlib.contextmanager
    def timed():
        started = time.perf_counter()
        try:
            yield
        finally:
            setup.generator_s += time.perf_counter() - started

    setup.modules = import_bincover()
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    bc = SimpleNamespace(**setup.modules)
    setup.corpus = workload.build(bc, seed, directory, timed)
    for template in workload.warm_up:
        argv = [part.replace("{dir}", str(directory)) for part in template]
        result = invoke(bc.cli, argv, -1)
        if result.code != 0 or result.error:
            raise SetupError(f"warm-up {' '.join(template)} failed: {result.error or result.err.strip()}")
    return setup


@dataclass
class Timing:
    """One timed operation."""

    label: str
    seconds: float
    scaled_s: float
    items: int
    failed: bool


def measure(cli, corpus, seconds: float, golden: dict | None, record: dict | None):
    """Run whole rounds until the operations have taken ``seconds``."""
    timings: list[Timing] = []
    problems_seen = []
    probe_values = corpus.probe_values or GRID_SAMPLE
    busy = 0.0
    round_index = 0
    while busy < seconds:
        for op in corpus.round(round_index):
            result, elapsed, scaled_s = scaled(lambda: invoke(cli, op.argv, round_index), probe_values)
            busy += elapsed
            try:
                problems = op.check(result)
                if not problems and golden is not None and op.label in golden:
                    summary = op.golden(result)
                    if summary != golden[op.label]:
                        problems = [f"differs from the golden result: {summary} != {golden[op.label]}"]
                if not problems and record is not None and op.label not in record:
                    record[op.label] = op.golden(result)
            except (ValueError, KeyError, IndexError) as exc:
                problems = [f"output could not be checked: {type(exc).__name__}: {exc}"]
            if problems:
                problems_seen.append(f"round {round_index} {op.label}: {'; '.join(problems[:3])}")
            timings.append(Timing(op.label, elapsed, scaled_s, op.items, bool(problems)))
        round_index += 1
    return timings, problems_seen


def throughput(timings: list[Timing], key: str = "scaled_s") -> float:
    """Items per second over one median run of each distinct operation."""
    by_label: dict[str, list[Timing]] = defaultdict(list)
    for timing in timings:
        by_label[timing.label].append(timing)
    items = sum(group[0].items for group in by_label.values())
    return items / sum(statistics.median(getattr(t, key) for t in group) for group in by_label.values())


def layer_metrics(tracer: Tracer, timings: list[Timing], generator_s: float) -> dict:
    """Per-layer metrics, as means per traced CLI operation unless named otherwise.

    A span's self time is its duration minus its child spans' durations,
    scaled like its operation's time."""
    ops = len(timings)
    factor = [timing.scaled_s / timing.seconds for timing in timings]
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for name, op, start, end, parent, size in spans:
        if parent >= 0:
            child_s[parent] += end - start
    self_total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sizes: dict[str, int] = defaultdict(int)
    exact_ms: dict[int, list[float]] = defaultdict(list)
    sweep_runs = 0
    for index, (name, op, start, end, parent, size) in enumerate(spans):
        self_total[name] += (end - start - child_s[index]) * factor[op]
        calls[name] += 1
        sizes[name] += size or 0
        if name == "optimal.opt_exact":
            exact_ms[size].append((end - start) * factor[op] * 1000)
        if name == "strategies.advice_dh_run" and parent >= 0 and spans[parent][0] == "oracle.compute_advice":
            sweep_runs += 1

    def per_op(table, *names):
        return sum(table[name] for name in names) / ops

    runs = ("strategies.dnf_run", "strategies.dh_run", "strategies.advice_dh_run")
    oracle_calls = calls["oracle.compute_advice"]
    op_s = sum(timing.scaled_s for timing in timings)
    metrics = {
        "cli.calls": (ops, "count"),
        "cli.self_s": (per_op(self_total, "cli.main"), "s/op"),
        "oracle.self_s": (per_op(self_total, "oracle.compute_advice"), "s/op"),
        "oracle.calls": (per_op(calls, "oracle.compute_advice"), "count/op"),
        "oracle.strategy_runs_per_call": (sweep_runs / oracle_calls if oracle_calls else 0.0, "count/call"),
        "model.classify_calls": (tracer.counts["model.classify"] / ops, "count/op"),
        "strategies.run_s": (per_op(self_total, *runs), "s/op"),
        "strategies.runs": (per_op(calls, *runs), "count/op"),
        "strategies.items_stepped": (per_op(sizes, *runs), "count/op"),
        "optimal.opt_exact_s": (per_op(self_total, "optimal.opt_exact"), "s/op"),
        "optimal.opt_exact_calls": (per_op(calls, "optimal.opt_exact"), "count/op"),
    }
    for n in (12, 13, 14, 15):
        samples = exact_ms.get(n)
        metrics[f"optimal.opt_exact_ms.n{n}"] = (statistics.median(samples) if samples else 0.0, "ms")
    metrics.update({
        "optimal.certificate_s": (per_op(self_total, "optimal.verify_certificate", "optimal.load_certificate"), "s/op"),
        "optimal.identities_s": (per_op(self_total, "optimal.decompose", "optimal.normalize_certificate",
                                        "optimal.verify_count_identities"), "s/op"),
        "optimal.floor_bound_s": (per_op(self_total, "optimal.floor_load_bound"), "s/op"),
        "model.load_instance_s": (per_op(self_total, "model.load_instance"), "s/op"),
        "model.normalize_s": (per_op(self_total, "model.normalize_sequence"), "s/op"),
        "model.from_values_s": (per_op(self_total, "model.Sequence.from_values"), "s/op"),
        "model.items_parsed": (per_op(sizes, "model.load_instance"), "count/op"),
        "codec.encode_s": (per_op(self_total, "codec.encode_advice"), "s/op"),
        "codec.decode_s": (per_op(self_total, "codec.decode_advice"), "s/op"),
        "codec.tape_io_s": (per_op(self_total, "codec.read_tape", "codec.write_tape"), "s/op"),
        "codec.tape_bits": (per_op(sizes, "codec.encode_advice"), "count/op"),
        "generators.s": (generator_s, "s"),
        "generators.in_op_s": (per_op(self_total, "generators.random_instance", "generators.example_instance",
                                      "generators.smalls_first_family"), "s/op"),
        "trace.items_per_s": (throughput(timings), "1/s"),
        "trace.unaccounted_s": ((op_s - sum(self_total.values())) / ops, "s/op"),
    })
    return metrics


def print_shares(metrics: dict, timings: list[Timing]) -> None:
    """Human-readable share of traced operation time per layer."""
    op_s = sum(timing.scaled_s for timing in timings) / len(timings)
    for name, (value, unit) in metrics.items():
        if unit == "s/op" and value:
            print(f"share  {name:32s} {value / op_s:7.1%}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="store this seed's results in golden.json")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    directory = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    golden_file = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden = golden_file.get(args.workload) if golden_file.get("seed") == args.seed else None
    record = {} if args.record_golden else None
    try:
        setups = []  # (scaled seconds, seconds in generators)
        for _ in range(SETUP_REPEATS):
            gc.collect()  # each set-up starts from a collected heap
            setup, _, setup_s = scaled(lambda: set_up(workload, args.seed, directory))
            setups.append((setup_s, setup.generator_s))
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install(setup.modules)
        try:
            timings, problems = measure(setup.modules["cli"], setup.corpus, args.seconds, golden, record)
        finally:
            if tracer:
                tracer.uninstall()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    attempted = len(timings)
    failed = sum(1 for timing in timings if timing.failed)
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if record is not None:
        golden_file = golden_file if golden_file.get("seed") == args.seed else {"seed": args.seed}
        golden_file[args.workload] = record
        GOLDEN.write_text(json.dumps(golden_file, indent=2, sort_keys=True) + "\n")

    if tracer:
        metrics = layer_metrics(tracer, timings, statistics.median(g for _, g in setups))
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        print_shares(metrics, timings)
    else:
        metrics = {
            "setup_s": (statistics.median(s for s, _ in setups), "s"),
            "items_per_s": (throughput(timings), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    busy = sum(timing.seconds for timing in timings)
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations in {busy:.2f} s, "
          f"failed_ratio {failed / attempted:.4f}, unscaled items_per_s {throughput(timings, 'seconds'):.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
