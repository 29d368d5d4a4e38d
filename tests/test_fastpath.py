"""Fast paths against the plain forms they replace.

``pulse_operators`` simulates the six compiled gates once and recurses on
V (compiled program) and W (compiled adjoint program). The reference
simulates the whole ``compile_algorithm`` program event by event, and the
scipy ``expm`` brute force checks every compiled gate independently.

The output layer and the per-event kernel are vectorised without changing
a bit. ``format_trace`` fills a ``%``-template whose frequency column
``trace_template`` prints once per grid, and ``panel_grid`` reuses a
column's polyline x text while its panels pass the same ``xs`` object and
formats only the y values of each panel. ``pulse_unitary`` forms the Kronecker product
by broadcasting and memoises event unitaries by value, process-wide and
bounded, so ``sequence_unitary`` simulates each distinct event once. Each
is checked here for byte or bit equality against the per-value form, kept
only in this file, with the memo cold and warm.

``compile_gates`` memoises each (oracle, system, style) the same way, and
criterion 3 continues one event-by-event product through the orders of a
program family; both are checked against their plain forms too.

``run_spectra`` builds its SVG in a forked worker while it formats the
traces. The worker's text is checked byte-equal to an in-process
``panel_grid`` with and without ``os.fork``, and a run, a failed worker and a
run aborted by a write error are each checked to leave no child process and
no open fd behind.
"""

import contextlib
import dataclasses
import io
import itertools
import os
import re
import signal
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bruteforce import sequence_unitary_expm
from fpsearch import cli, experiments, svgplot, verify
from fpsearch.compiler import (
    STYLES,
    _compiled_gates,
    clear_compile_memo,
    compile_algorithm,
    compile_gates,
)
from fpsearch.config import build_config
from fpsearch.experiments import EXPERIMENTS, pulse_operators
from fpsearch.pulses import (
    _COUPLING_DIAG,
    DELAY,
    RF_PULSE,
    SPINS,
    ErrorModel,
    PulseEvent,
    PulseSequence,
    SpinSystem,
    _event_unitary,
    _rot_xy,
    clear_event_memo,
    coupling_delay,
    pulse_unitary,
    rf_pulse,
    sequence_unitary,
)
from fpsearch.readout import format_trace, trace_template
from fpsearch.search import OracleSpec, all_oracles, ideal_gates

ORACLES = all_oracles(1) + all_oracles(2)

ERRORS = {
    "none": ErrorModel(),
    "rf+0.1": ErrorModel(eps_H=0.1, eps_C=0.1),
    "rf-0.1": ErrorModel(eps_H=-0.1, eps_C=-0.1),
    "delta_j": ErrorModel(delta_J=0.05),
    "mixed": ErrorModel(eps_H=0.05, eps_C=0.03, delta_J=0.05),
}


def _reference(r, oracle, system, style, error):
    return sequence_unitary(compile_algorithm(r, oracle, system, style), system, error)


def _reference_orders(r_max, oracle, system, style, error):
    """``_reference`` for r = 0..r_max in one pass over the order-r_max program.

    Each order-r program is a prefix of the next, so one event-by-event
    product passes through all of them. The product runs in the same order
    as ``sequence_unitary`` with the same event unitaries (memoized per
    distinct event), so each result is bitwise the reference.
    """
    programs = [compile_algorithm(r, oracle, system, style) for r in range(r_max + 1)]
    events = programs[-1].events
    ends = {len(seq): r for r, seq in enumerate(programs)}
    for seq in programs:
        assert events[: len(seq)] == seq.events
    cache, out = {}, []
    u = np.eye(4, dtype=complex)
    for i, event in enumerate(events, start=1):
        if event not in cache:
            cache[event] = pulse_unitary(event, system, error)
        u = cache[event] @ u
        if i in ends:
            out.append(u)
    return out


def test_one_pass_reference_is_bitwise_the_reference(system):
    error = ERRORS["mixed"]
    for style in STYLES:
        refs = _reference_orders(3, ORACLES[1], system, style, error)
        for r, u in enumerate(refs):
            assert np.array_equal(u, _reference(r, ORACLES[1], system, style, error))


@pytest.mark.parametrize("error", ERRORS.values(), ids=ERRORS)
@pytest.mark.parametrize("style", STYLES)
def test_matches_reference_elementwise(system, style, error):
    # elementwise, not up to global phase: the recursion must reproduce the
    # reference operator itself, r <= 4 on every k <= 2 oracle
    for oracle in ORACLES:
        gates = compile_gates(oracle, system, style)
        ops = pulse_operators(4, gates, system, error)
        refs = _reference_orders(4, oracle, system, style, error)
        assert len(ops) == len(refs) == 5
        for r, (v, ref) in enumerate(zip(ops, refs)):
            assert np.max(np.abs(v - ref)) <= 1e-10, (oracle.label(), r)


_error = st.floats(-0.2, 0.2)


@settings(max_examples=25)
@given(
    eps_h=_error,
    eps_c=_error,
    delta_j=_error,
    oracle=st.sampled_from(ORACLES),
    style=st.sampled_from(STYLES),
    r=st.integers(0, 3),
)
def test_matches_reference_random_errors(system, eps_h, eps_c, delta_j, oracle, style, r):
    error = ErrorModel(eps_H=eps_h, eps_C=eps_c, delta_J=delta_j)
    v = pulse_operators(r, compile_gates(oracle, system, style), system, error)[r]
    assert np.max(np.abs(v - _reference(r, oracle, system, style, error))) <= 1e-10


@settings(max_examples=15)
@given(
    eps_h=_error,
    eps_c=_error,
    delta_j=_error,
    oracle=st.sampled_from(ORACLES),
    style=st.sampled_from(STYLES),
)
def test_gates_match_bruteforce(system, eps_h, eps_c, delta_j, oracle, style):
    error = ErrorModel(eps_H=eps_h, eps_C=eps_c, delta_J=delta_j)
    gates = compile_gates(oracle, system, style)
    assert list(gates) == list(ideal_gates(oracle))
    for label, seq in gates.items():
        u = sequence_unitary(seq, system, error)
        assert np.max(np.abs(u - sequence_unitary_expm(seq, system, error))) <= 1e-9, label


# ---- output layer: one-pass formatting against per-value formatting ----

# zeros of both signs, subnormals and values near the float range's ends
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                1e-300, -1e-300, 1e300, -1.7976931348623157e308]
_any_float = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(width=64))


def _format_trace_per_value(freqs, ys):
    return "".join(f"{f:.12g} {y:.12g}\n" for f, y in zip(freqs, ys))


_any_value = st.one_of(_any_float, st.sampled_from([np.inf, -np.inf, np.nan]))


@st.composite
def _shared_grid(draw):
    """A frequency grid and the intensities of several traces drawn on it."""
    n = draw(st.integers(1, 40))
    freqs = draw(arrays(np.float64, n, elements=_any_value))
    ys = draw(st.lists(arrays(np.float64, n, elements=_any_value), min_size=1, max_size=4))
    return freqs, ys


@settings(max_examples=100)
@given(_shared_grid())
def test_format_trace_is_per_value_formatting(grid):
    # run_spectra prints its grid once and fills in each trace's intensities
    freqs, ys = grid
    template = trace_template(freqs)
    for y in ys:
        assert format_trace(template, y) == _format_trace_per_value(freqs, y)


def test_format_trace_edge_values():
    freqs = np.array(_EDGE_FLOATS + [np.inf, np.nan])
    ys = np.array([np.nan, -np.inf] + _EDGE_FLOATS[::-1])
    assert format_trace(trace_template(freqs), ys) == _format_trace_per_value(freqs, ys)


def test_only_bitwise_equal_traces_share_a_text():
    # 0.0 == -0.0, yet the two print differently
    arrays = [np.array([0.0, 1.0]), np.array([-0.0, 1.0]), np.array([0.0, 1.0]),
              np.array([np.nan]), np.array([np.nan])]
    assert experiments._first_equal(arrays) == [0, 1, 0, 3, 3]


def test_spectra_formats_each_distinct_trace_once(monkeypatch):
    cfg = build_config("spectra", {"oracle.k": "2", "freq.points": "101"})
    formatted = []

    def counted(template, ys):
        formatted.append(ys.tobytes())
        return format_trace(template, ys)

    monkeypatch.setattr(experiments, "format_trace", counted)
    shared = list(experiments.run_spectra(cfg))
    assert len(formatted) == len(set(formatted)) == 24
    assert len(shared) == 31  # 30 traces and the panel grid
    # each trace formatted on its own gives the same files
    monkeypatch.setattr(experiments, "_first_equal", lambda arrays: range(len(arrays)))
    assert list(experiments.run_spectra(cfg)) == shared


# panel_grid's layout: 150x96 cells below a 70 px left and 40 px top margin
_CELL_W, _CELL_H, _LEFT, _TOP = 150, 96, 70, 40


def _polyline_per_point(panel, i, j, y_limit, reverse_x):
    ox, oy = _LEFT + j * _CELL_W, _TOP + i * _CELL_H
    x0, x1 = min(panel.xs), max(panel.xs)
    span = (x1 - x0) or 1.0
    mid = oy + (_CELL_H - 8) / 2.0
    scale = (_CELL_H - 12) / (2.0 * y_limit) if y_limit > 0 else 0.0
    pts = []
    for x, y in zip(panel.xs, panel.ys):
        u = (x - x0) / span
        if reverse_x:
            u = 1.0 - u
        pts.append(f"{ox + 4 + u * (_CELL_W - 16):.6g},{mid - y * scale:.6g}")
    return " ".join(pts)


_coord = st.floats(-1e6, 1e6, allow_subnormal=True)


@st.composite
def _panel_data(draw):
    """Four (xs, ys) panels of one length, row-major in a 2x2 grid."""
    n = draw(st.integers(1, 30))
    panels = []
    for _ in range(4):
        xs = draw(st.one_of(
            st.lists(_coord, min_size=n, max_size=n),
            st.lists(st.just(draw(_coord)), min_size=n, max_size=n),  # constant x
        ))
        panels.append((xs, draw(st.lists(_coord, min_size=n, max_size=n))))
    return panels


# where each panel's xs comes from: its own list, one object per column, one
# object for the whole grid (run_spectra's freqs), or equal distinct copies of
# its column's list (perfbench/check.py's list(...) per panel)
_XS_SHARING = ("own", "column", "grid", "copies")


@settings(max_examples=60)
@given(
    data=_panel_data(),
    y_limit=st.one_of(st.just(0.0), st.just(-1.0), st.floats(1e-3, 1e6)),
    reverse_x=st.booleans(),
    as_array=st.booleans(),
    sharing=st.sampled_from(_XS_SHARING),
)
# a constant-x panel (zero span) and both non-positive y limits, every time
@example(data=[([2.5] * 3, [1.0, -2.0, 0.0])] * 4, y_limit=0.0, reverse_x=True,
         as_array=True, sharing="grid")
@example(data=[([0.0, -1.0, 3.0], [0.5, 0.0, -0.5])] * 4, y_limit=-1.0,
         reverse_x=False, as_array=False, sharing="copies")
# the rows of a column differ in xs, so they must not share x text
@example(data=[([0.0, 1.0], [1.0, 2.0]), ([5.0, 7.0], [0.0, 1.0]),
               ([3.0, 1.0], [1.0, 2.0]), ([7.0, 6.0], [1.0, 0.0])],
         y_limit=2.0, reverse_x=True, as_array=True, sharing="own")
def test_panel_grid_is_per_point_formatting(data, y_limit, reverse_x, as_array, sharing):
    wrap = np.array if as_array else list
    shared = {"column": [wrap(data[0][0]), wrap(data[1][0])],
              "grid": [wrap(data[0][0])] * 2}.get(sharing)

    def xs(i, j):
        if shared is not None:
            return shared[j]
        return wrap(data[j][0] if sharing == "copies" else data[2 * i + j][0])

    panels = [
        [svgplot.Panel(f"row{i}", f"col{j}", xs(i, j), wrap(data[2 * i + j][1]))
         for j in range(2)]
        for i in range(2)
    ]
    svg = svgplot.panel_grid(panels, "t", y_limit, reverse_x=reverse_x)
    got = re.findall(r'<polyline points="([^"]*)"', svg)
    expected = [
        _polyline_per_point(panel, i, j, y_limit, reverse_x)
        for i, row in enumerate(panels)
        for j, panel in enumerate(row)
    ]
    assert got == expected


# ---- pulse kernel: broadcast Kronecker product and value-keyed event memo ----


def _pulse_unitary_unmemoised(event, system, error):
    """The event unitary as np.kron of per-spin factors, or a delay's diagonal."""
    if event.kind != RF_PULSE:
        angle = np.pi * system.J * (1.0 + error.delta_J) * event.duration
        return np.diag(np.exp(-1j * angle * _COUPLING_DIAG))
    factors = [
        _rot_xy(event.angle * (1.0 + getattr(error, f"eps_{spin}")), event.phase)
        if spin in event.targets
        else np.eye(2, dtype=complex)
        for spin in SPINS
    ]
    return np.kron(factors[0], factors[1])


# zeros of both signs are drawn often: they compare equal but differ in bits
_angle = st.one_of(st.sampled_from([0.0, -0.0, np.pi / 2, np.pi, 2 * np.pi]),
                   st.floats(-20.0, 20.0))
_rf_event = st.builds(
    PulseEvent,
    kind=st.just(RF_PULSE),
    targets=st.sampled_from([frozenset("H"), frozenset("C"), frozenset("HC")]),
    angle=_angle,
    phase=_angle,
)
_event = st.one_of(_rf_event, st.builds(coupling_delay, st.floats(1e-6, 1e-2)))
_error_field = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.5, 0.5))
_error_model = st.builds(ErrorModel, eps_H=_error_field, eps_C=_error_field,
                         delta_J=_error_field)


def _signed_zero_variants(event, error):
    """``(event, error)`` with every zero field taken as both 0.0 and -0.0."""
    def signs(obj, names):
        choices = [(0.0, -0.0) if getattr(obj, n) == 0 else (getattr(obj, n),)
                   for n in names]
        return [dict(zip(names, values)) for values in itertools.product(*choices)]

    return [
        (dataclasses.replace(event, **e), ErrorModel(**m))
        for e in signs(event, ("angle", "phase"))
        for m in signs(error, ("eps_H", "eps_C", "delta_J"))
    ]


@settings(max_examples=200)
@given(event=_event, error=_error_model)
def test_pulse_unitary_is_bitwise_kron(system, event, error):
    # A cold and then a warm pass, with 0.0 seen first and then -0.0 seen
    # first. Bytes, unlike np.array_equal, also see the sign of a zero.
    variants = _signed_zero_variants(event, error)
    for order in (variants, variants[::-1]):
        clear_event_memo()
        for ev, err in order + order:
            assert pulse_unitary(ev, system, err).tobytes() == (
                _pulse_unitary_unmemoised(ev, system, err).tobytes()
            )


def test_memo_keeps_float_widths_apart(system):
    # np.float32(0.5) == 0.5 with the same hash, yet it computes in float32
    for event, field in ((rf_pulse("H", 1.0), "eps_H"), (coupling_delay(1e-3), "delta_J")):
        for value in (0.5, np.float32(0.5), 0.5):
            error = ErrorModel(**{field: value})
            assert pulse_unitary(event, system, error).tobytes() == (
                _pulse_unitary_unmemoised(event, system, error).tobytes()
            )


def test_memoised_unitaries_are_read_only(system):
    for event in (rf_pulse({"H", "C"}, np.pi / 2, 0.25), coupling_delay(1e-3)):
        u = pulse_unitary(event, system)
        assert u is pulse_unitary(event, system)  # shared by every caller
        with pytest.raises(ValueError, match="read-only"):
            u[0, 0] = 0.0
    # a product is the caller's own array
    assert sequence_unitary(PulseSequence((coupling_delay(1e-3),)), system).flags.writeable


def test_event_memo_is_bounded(system):
    maxsize = _event_unitary.cache_info().maxsize
    assert maxsize is not None
    clear_event_memo()
    for i in range(maxsize + 10):
        pulse_unitary(coupling_delay(1e-3 + i * 1e-9), system)
    info = _event_unitary.cache_info()
    assert (info.currsize, info.misses) == (maxsize, maxsize + 10)
    clear_event_memo()


def test_determinism_check_starts_each_run_cold(system, monkeypatch):
    # criterion 9 compares two runs, so the second must compile its gates and
    # simulate its events afresh rather than read the first run's memos
    name = "bb1-scaling"
    runner, description = EXPERIMENTS[name]
    runs = []

    def counted(cfg):
        before = (_compiled_gates.cache_info(), _event_unitary.cache_info())
        files = list(runner(cfg))
        after = (_compiled_gates.cache_info(), _event_unitary.cache_info())
        runs.append([(b.currsize, a.misses - b.misses) for b, a in zip(before, after)])
        return files

    monkeypatch.setattr(verify, "EXPERIMENT_NAMES", (name,))
    monkeypatch.setattr(verify, "EXPERIMENTS", {name: (counted, description)})
    # warm memos beforehand, holding what the runs compile and simulate
    list(runner(build_config(name, {})))
    assert verify.check_determinism().passed
    assert len(runs) == 2
    for memos in runs:
        assert all(size == 0 and misses > 0 for size, misses in memos)


def _sequence_unitary_unmemoised(sequence, system, error):
    u = np.eye(4, dtype=complex)
    for event in sequence.events:
        u = _pulse_unitary_unmemoised(event, system, error) @ u
    return u


@settings(max_examples=50)
@given(
    pool=st.lists(_rf_event, min_size=1, max_size=6),
    picks=st.lists(st.integers(0, 6), min_size=1, max_size=60),
    error=_error_model,
)
def test_sequence_unitary_is_bitwise_the_unmemoised_product(system, pool, picks, error):
    # the memo stays warm across examples, as it does across a process
    pool = pool + [coupling_delay(1e-3)]
    # repeated objects, as compiled programs have, and equal distinct ones
    events = [pool[k % len(pool)] for k in picks] + [dataclasses.replace(pool[0])]
    seq = PulseSequence(tuple(events))
    u = sequence_unitary(seq, system, error)
    assert u.tobytes() == _sequence_unitary_unmemoised(seq, system, error).tobytes()


# ---- compile memo: one read-only compilation per (oracle, system, style) ----


def test_compile_memo_keeps_float_widths_apart():
    # equal systems with one hash, yet a float32 J compiles float32 delays
    oracle = OracleSpec({"11"})
    wide, narrow = SpinSystem(J=150.0), SpinSystem(J=np.float32(150.0))
    assert wide == narrow and hash(wide) == hash(narrow)
    for order in ((wide, narrow), (narrow, wide)):
        clear_compile_memo()
        for system in order + order:
            gates = compile_gates(oracle, system)
            plain = _compiled_gates.__wrapped__(oracle, system, "naive")
            for label, seq in gates.items():
                assert seq.events == plain[label].events, label
            delays = [e.duration for e in gates["Rf"].events if e.kind == DELAY]
            assert delays and all(type(t) is type(system.J) for t in delays)


def test_compiled_gates_are_shared_and_read_only(system):
    gates = compile_gates(ORACLES[0], system, "bb1")
    assert gates is compile_gates(ORACLES[0], system, "bb1")
    with pytest.raises(TypeError):
        gates["U"] = gates["Udag"]
    with pytest.raises(TypeError):
        del gates["U"]


def test_compile_memo_is_bounded():
    maxsize = _compiled_gates.cache_info().maxsize
    assert maxsize is not None
    clear_compile_memo()
    for i in range(maxsize + 10):
        compile_gates(ORACLES[0], SpinSystem(J=100.0 + i))
    info = _compiled_gates.cache_info()
    assert (info.currsize, info.misses) == (maxsize, maxsize + 10)
    clear_compile_memo()


# ---- criterion 3: one continued product per program family ----


@pytest.mark.parametrize("style", STYLES)
def test_continued_product_is_bitwise_each_program(system, style):
    for oracle in ORACLES:
        products = verify.program_unitaries(3, oracle, system, style)
        assert len(products) == 4
        for r, u in enumerate(products):
            ref = sequence_unitary(compile_algorithm(r, oracle, system, style), system)
            assert u.tobytes() == ref.tobytes(), (oracle.label(), r)


# ---- spectra's SVG: built in a forked worker while the traces are formatted ----


def _count_forks(monkeypatch):
    """Wrap os.fork; the returned list collects each worker's pid."""
    fork, pids = os.fork, []

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture(params=["fork", "fallback"])
def svg_path(request, monkeypatch):
    """Whether the worker builds the SVG, or this process for want of os.fork."""
    if request.param == "fork":
        return _count_forks(monkeypatch)
    monkeypatch.delattr(os, "fork")
    return None


@pytest.mark.parametrize("sharing", ["shared", "copies", "lists"])
def test_worker_svg_is_the_in_process_svg(svg_path, sharing):
    # one xs object for every panel (run_spectra's freqs), equal distinct
    # arrays, or plain lists; 1001 points a panel make an SVG larger than
    # the 64 KB pipe buffer
    rng = np.random.default_rng(7)
    freqs = np.linspace(-60.0, 60.0, 1001)
    wrap = {"shared": lambda xs: freqs, "copies": np.array, "lists": list}[sharing]
    panels = [
        [svgplot.Panel(f"row{i}", f"r={j}", wrap(freqs), rng.normal(size=1001))
         for j in range(3)]
        for i in range(2)
    ]
    expected = svgplot.panel_grid(panels, "t", 2.5, reverse_x=True)
    assert len(expected) > 65536
    built_here = []

    def build():
        built_here.append(os.getpid())
        return svgplot.panel_grid(panels, "t", 2.5, reverse_x=True)

    pairs = [("a.txt", "a"), ("b.txt", "b")]
    got = list(experiments._overlapped(iter(pairs), "grid.svg", build))
    assert got == pairs + [("grid.svg", expected)]
    # on the fork path only the worker called build
    assert built_here == ([] if svg_path is not None else [os.getpid()])
    assert svg_path is None or len(svg_path) == 1


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


_counts_fds = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc")


@pytest.fixture()
def no_leaks(monkeypatch):
    """Forks are counted; afterwards no child process and no new fd is left."""
    before = _open_fds()
    yield _count_forks(monkeypatch)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == before


_SMALL_SPECTRA = ["run", "spectra", "--override", "freq.points=101"]


def _spectra_files(out):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*_SMALL_SPECTRA, "--out", str(out)])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@_counts_fds
def test_spectra_run_leaves_no_worker_or_fd(tmp_path, no_leaks):
    code, files = _spectra_files(tmp_path)
    assert code == 0 and len(no_leaks) == 1
    assert len(files) == 21 and "spectra_k1.svg" in files


@_counts_fds
def test_failed_worker_falls_back_to_the_same_bytes(tmp_path, monkeypatch, no_leaks):
    _, expected = _spectra_files(tmp_path / "ok")
    parent, panel_grid = os.getpid(), svgplot.panel_grid

    def dies_in_worker(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return panel_grid(*args, **kwargs)

    def raises_in_worker(*args, **kwargs):
        if os.getpid() != parent:
            raise RuntimeError("worker only")
        return panel_grid(*args, **kwargs)

    for i, failing in enumerate((dies_in_worker, raises_in_worker)):
        monkeypatch.setattr(svgplot, "panel_grid", failing)
        code, files = _spectra_files(tmp_path / str(i))
        assert code == 0 and files == expected
    assert len(no_leaks) == 3


@_counts_fds
def test_panel_grid_error_surfaces_unchanged(monkeypatch, no_leaks):
    def broken(*args, **kwargs):
        raise ValueError("no panels")

    monkeypatch.setattr(svgplot, "panel_grid", broken)
    cfg = build_config("spectra", {"freq.points": "101"})
    files = experiments.run_spectra(cfg)
    with pytest.raises(ValueError, match="no panels"):
        for name, _ in files:
            assert name.endswith(".txt")  # every trace comes before the error
    assert len(no_leaks) == 1


@_counts_fds
def test_trace_write_error_after_fork_exits_2(tmp_path, no_leaks, capsys):
    # a directory where the second trace file goes: the write fails mid-run
    names = [name for name, _ in experiments.run_spectra(
        build_config("spectra", {"freq.points": "101"}))]
    (tmp_path / names[1]).mkdir()
    forks_before = len(no_leaks)
    assert cli.main([*_SMALL_SPECTRA, "--out", str(tmp_path)]) == 2
    assert "config error: output.dir:" in capsys.readouterr().err
    assert len(no_leaks) == forks_before + 1


@_counts_fds
def test_raising_worker_never_returns_to_the_caller(tmp_path, no_leaks):
    parent = os.getpid()

    def build():
        if os.getpid() != parent:
            raise RuntimeError("worker only")
        return "svg"

    try:
        got = list(experiments._overlapped(iter([("a.txt", "a")]), "x.svg", build))
    finally:
        if os.getpid() != parent:  # a worker that got out of _overlapped
            (tmp_path / "escaped").touch()
            os._exit(1)
    assert got == [("a.txt", "a"), ("x.svg", "svg")]
    assert not (tmp_path / "escaped").exists() and len(no_leaks) == 1


@_counts_fds
def test_closing_early_kills_a_busy_worker(no_leaks):
    # a worker that never finishes: closing the run must not wait for it
    def timeout(signum, frame):
        raise TimeoutError("closing waited for the worker")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        run = experiments._overlapped(iter([("a.txt", "a")]), "x.svg", signal.pause)
        assert next(run) == ("a.txt", "a")
        run.close()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(no_leaks) == 1


@_counts_fds
def test_worker_is_reaped_after_its_pipe_closes(monkeypatch, no_leaks):
    # the worker lingers between closing its pipe and exiting; the run still
    # waits for it, so no child is left behind
    real_exit = os._exit

    def slow_exit(code):
        time.sleep(0.2)
        real_exit(code)

    monkeypatch.setattr(os, "_exit", slow_exit)
    assert list(experiments._overlapped(iter([]), "x.svg", lambda: "svg")) == [
        ("x.svg", "svg")]
    assert len(no_leaks) == 1
