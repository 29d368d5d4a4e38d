"""Layer spans around fpsearch's public functions, installed from outside.

Each wrapper replaces a function under the name its caller looks it up by
(``fpsearch.experiments.compile_algorithm``, ``fpsearch.verify.readout``,
...), so the package is traced without being modified. A caller that
reaches a function through a module attribute (``readout.crush`` in
``verify``, ``svgplot.panel_grid`` in ``experiments``) gets a view of that
module with the traced functions swapped in, so calls inside the module
itself stay untraced.

Spans are kept in memory as ``(name, start, end, parent)``, with
``parent`` the index of the enclosing span or -1, and written out by the
caller when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time
from collections import Counter, defaultdict
from pathlib import Path


def clock() -> float:
    """System-wide monotonic seconds, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _count_compiled(tracer, args, result):
    tracer.counts["compiler.events"] += len(result.events)


def _count_simulated(tracer, args, result):
    tracer.counts["pulses.events"] += len(args[0].events)


def _count_text(counter):
    def count(tracer, args, result):
        tracer.counts[counter] += len(result.encode())

    return count


def _record_files(tracer, args, result):
    experiment = args[0].experiment
    for path in result:
        data = Path(path).read_bytes()
        tracer.counts["experiments.files"] += 1
        tracer.counts["experiments.bytes"] += len(data)
        tracer.files.append((experiment, Path(path).name, hashlib.sha256(data).hexdigest()))


def _record_checks(tracer, args, result):
    tracer.checks = [(r.name, r.passed, r.seconds) for r in result]


READOUT_ESTIMATE = ("crush", "spectrum_from_populations", "reference_spectrum",
                    "estimate_probability")

# (module, attribute, span name, counter callback)
FUNCTIONS = [
    ("fpsearch.cli", "run_experiment", "experiments.run_experiment", _record_files),
    ("fpsearch.cli", "run_all", "verify.run_all", _record_checks),
    ("fpsearch.verify", "run_experiment", "experiments.run_experiment", _record_files),
    *(
        entry
        for module in ("fpsearch.experiments", "fpsearch.verify")
        for entry in (
            (module, "compile_algorithm", "compiler.compile_algorithm", _count_compiled),
            (module, "sequence_unitary", "pulses.sequence_unitary", _count_simulated),
            (module, "recursive_operator", "search.recursive_operator", None),
        )
    ),
    *(("fpsearch.experiments", fn, "readout.estimate", None) for fn in READOUT_ESTIMATE),
    ("fpsearch.experiments", "lorentzian_trace", "readout.lorentzian_trace", None),
    ("fpsearch.experiments", "format_trace", "readout.format_trace",
     _count_text("readout.format_trace.bytes")),
]

# (module, attribute holding a module, {function: (span name, callback)})
MODULE_VIEWS = [
    ("fpsearch.verify", "readout", {fn: ("readout.estimate", None) for fn in READOUT_ESTIMATE}),
    ("fpsearch.experiments", "svgplot", {
        fn: ("svgplot", _count_text("svgplot.bytes")) for fn in ("xy_plot", "panel_grid")
    }),
]


class _ModuleView:
    """A module as one caller sees it, with some functions replaced."""

    def __init__(self, module, replaced: dict):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.files: list[tuple[str, str, str]] = []  # (experiment, file, sha256)
        self.checks: list[tuple[str, bool, float]] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)
            self._open.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._open.pop()
                self.spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def _patch(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        for module_name, attr, name, on_result in FUNCTIONS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self.wrap(getattr(module, attr), name, on_result))
        for module_name, attr, functions in MODULE_VIEWS:
            module = importlib.import_module(module_name)
            target = getattr(module, attr)
            replaced = {
                fn: self.wrap(getattr(target, fn), name, on_result)
                for fn, (name, on_result) in functions.items()
            }
            self._patch(module, attr, _ModuleView(target, replaced))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered, cursor = 0.0, start
        for k_start, k_end in sorted(kids):
            k_start, k_end = max(k_start, cursor), min(k_end, end)
            if k_end > k_start:
                covered += k_end - k_start
                cursor = k_end
        out.append(end - start - covered)
    return out


def layer_totals(spans) -> tuple[dict[str, float], Counter]:
    """Total seconds and call count per span name."""
    seconds: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    for name, start, end, _ in spans:
        seconds[name] += end - start
        calls[name] += 1
    return seconds, calls
