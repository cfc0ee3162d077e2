"""Spans and counts recorded around calls into bincover's modules.

The tracer replaces names inside the modules that call them (for example
``cli.opt_exact`` or ``oracle.advice_dh_run``) with wrappers and puts the
originals back on ``uninstall``.  Nothing in the program is edited.  A name
that no longer exists is skipped, so its spans and counts read as zero.

Spans stay in memory while the benchmark runs and are written as JSON lines
when it ends.  Each span names its parent span and its CLI operation.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path


def _first_arg_len(args, kwargs, result):
    return len(args[0]) if args else 0


def _result_len(args, kwargs, result):
    return len(result)


ROOT = "cli.main"  # one span per CLI operation; every other span nests in one

# (module, attribute in that module, span name, size of one call or None).
# The span name is "<module defining the function>.<function>".
SPAN_SITES = (
    ("cli", "main", ROOT, None),
    ("cli", "load_instance", "model.load_instance", _result_len),
    ("cli", "normalize_sequence", "model.normalize_sequence", None),
    ("cli", "compute_advice", "oracle.compute_advice", None),
    ("cli", "dnf_run", "strategies.dnf_run", _first_arg_len),
    ("cli", "dh_run", "strategies.dh_run", _first_arg_len),
    ("cli", "advice_dh_run", "strategies.advice_dh_run", _first_arg_len),
    ("oracle", "advice_dh_run", "strategies.advice_dh_run", _first_arg_len),
    ("cli", "opt_exact", "optimal.opt_exact", _first_arg_len),
    ("cli", "verify_certificate", "optimal.verify_certificate", None),
    ("cli", "load_certificate", "optimal.load_certificate", None),
    ("cli", "floor_load_bound", "optimal.floor_load_bound", None),
    ("cli", "decompose", "optimal.decompose", None),
    ("cli", "normalize_certificate", "optimal.normalize_certificate", None),
    ("cli", "verify_count_identities", "optimal.verify_count_identities", None),
    ("cli", "encode_advice", "codec.encode_advice", _result_len),
    ("cli", "decode_advice", "codec.decode_advice", None),
    ("cli", "read_tape", "codec.read_tape", _result_len),
    ("cli", "write_tape", "codec.write_tape", None),
    ("cli", "random_instance", "generators.random_instance", None),
    ("cli", "example_instance", "generators.example_instance", None),
    ("cli", "smalls_first_family", "generators.smalls_first_family", None),
)

# Names called far too often for a span each: only their calls are counted.
COUNT_SITES = (
    ("strategies", "classify", "model.classify"),
    ("oracle", "classify", "model.classify"),
    ("optimal", "classify", "model.classify"),
)


@dataclass
class Tracer:
    """In-memory span recorder for one benchmark process."""

    spans: list[tuple] = field(default_factory=list)  # (name, op, start, end, parent, size)
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    op: int = -1  # index of the current CLI operation
    _stack: list[int] = field(default_factory=list)  # indices of open spans
    _restore: list[tuple] = field(default_factory=list)

    def _span(self, name: str, size_of, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                parent = self._stack[-1]
            elif name == ROOT:
                parent = -1
                self.op += 1
            else:  # called by the benchmark itself, outside any operation
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                size = size_of(args, kwargs, result) if size_of and result is not None else None
                self.spans[index] = (name, self.op, start, end, parent, size)

        return wrapper

    def _counter(self, name: str, fn):
        counts, stack = self.counts, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:  # only inside a traced operation, not in the checks
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules) -> None:
        """Wrap every site present in ``modules`` (a name -> module mapping)."""
        for module_name, attr, span, size_of in SPAN_SITES:
            self._replace(modules[module_name], attr, lambda fn, s=span, z=size_of: self._span(s, z, fn))
        for module_name, attr, name in COUNT_SITES:
            self._replace(modules[module_name], attr, lambda fn, n=name: self._counter(n, fn))
        # cli calls Sequence.from_values on the class it shares with model.
        sequence = getattr(modules["model"], "Sequence", None)
        original = vars(sequence).get("from_values") if sequence is not None else None
        if isinstance(original, classmethod):
            self._restore.append((sequence, "from_values", original))
            sequence.from_values = classmethod(
                self._span("model.Sequence.from_values", _result_len, original.__func__))

    def _replace(self, module, attr: str, make) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return
        self._restore.append((module, attr, original))
        setattr(module, attr, make(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, (name, op, start, end, parent, size) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "op": op, "name": name, "parent": parent,
                    "start": start, "end": end, "size": size,
                }) + "\n")
