"""Fast paths against the plain forms they replace.

``pulse_operators`` compiles a list of (oracle, style) runs, simulates each
distinct compiled gate among them once per error list and recurses on V
(compiled program) and W (compiled adjoint program) of every run in one
stack. The reference simulates the whole ``compile_algorithm`` program event
by event, and the scipy ``expm`` brute force checks every compiled gate
independently. ``sequence_unitaries`` is the only event simulator: it takes
one stacked product per event for a whole error list, of one model as of
many. Each matrix of its stack, each row of ``pulse_operators`` (per run and
per model) and each element of ``pulse_infidelities``' eps grid is checked
bitwise against the unmemoised product or the one-run, one-model call, for
lists with repeats and zeros of either sign; permuting a list permutes the
result exactly.

The output layer and the per-event kernel are vectorised without changing
a bit. ``format_trace`` places a trace's intensities, rounded and laid out
in numpy by ``fpsearch.numtext``, beside the frequency column that
``trace_template`` prints once per grid. ``panel_grid`` reuses a column's
polyline x text while its panels pass the same ``xs`` object, and formats
one y value per run of equal ``%.6g`` roundings in each panel
(``tests/test_numtext.py`` checks ``numtext`` itself on ties, powers of
ten and carries). The kernel's factors come from a
``pulses.EventFactors`` table, which forms the Kronecker product by
broadcasting and memoises event unitaries by value for one simulation call,
so ``sequence_unitaries`` simulates each distinct event once per call and a
second call simulates it afresh. Each is checked here for byte or bit
equality against the per-value form, kept only in this file, with a table
cold (fresh) and warm (the same object). A table is keyed by plain floats,
so equal inputs of any numeric type, and zeros of either sign, get one
array; it works out each model's key values once per call and an event's
part of the key once for all models.
Single values are computed on Python floats, not numpy scalars: ``_rot_xy``
and the stack readout of ``success_probability`` are checked bitwise against
the numpy-scalar forms they replaced.

``compile_gates`` builds one gate table per call: each distinct gate of its
runs is compiled once, shared as one object by every run that uses it, and
equal to the gate of that run compiled on its own. ``pulse_operators`` makes
one such call and simulates each distinct gate under its whole error list.
A CSV row is formatted in one pass, checked against the per-value formatter.

``run_spectra`` evaluates one trace per distinct doublet, formats each
distinct trace once, and builds its SVG in a forked worker while it formats
the traces. Its files are checked against each trace evaluated and
formatted on its own. The worker's text is checked byte-equal to an
in-process ``panel_grid`` with and without ``os.fork``, and a run, a failed
worker and a run aborted by a write error are each checked to leave no
child process and no open fd behind.
"""

import contextlib
import dataclasses
import io
import itertools
import os
import random
import re
import signal
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bruteforce import sequence_unitary_expm
from fpsearch import cli, compiler, experiments, pulses, svgplot, verify
from fpsearch.compiler import STYLES, compile_algorithm, compile_gates
from fpsearch.config import build_config
from fpsearch.experiments import pulse_operators
from fpsearch.pulses import (
    _COUPLING_DIAG,
    DELAY,
    RF_PULSE,
    SPINS,
    ErrorModel,
    EventFactors,
    PulseEvent,
    PulseSequence,
    SpinSystem,
    _rot_xy,
    coupling_delay,
    rf_pulse,
    sequence_unitaries,
    sequence_unitary,
)
from fpsearch.readout import (
    Spectrum,
    crush,
    format_trace,
    lorentzian_trace,
    spectrum_from_populations,
    target_populations,
    trace_template,
)
from fpsearch.search import (
    OracleSpec,
    all_oracles,
    ideal_gates,
    origin_spec,
    success_probability,
)

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
    as ``sequence_unitary`` with the same event unitaries (memoised per
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
            cache[event] = _memoised(event, system, error)
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
        (ops,) = pulse_operators(4, [(oracle, style)], system, [error])[0]
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
    v = pulse_operators(r, [(oracle, style)], system, [error])[0][0, r]
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
    (gates,) = compile_gates([(oracle, style)], system)
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


def _csv_field_per_value(value):
    """The per-value CSV field formatter that the one-pass row replaced."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{float(value):.12g}"


_csv_value = st.one_of(
    st.none(),
    st.text(st.characters(blacklist_characters=",\n\r"), max_size=4),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _any_value,
    _any_value.map(np.float64),
    st.floats(width=32).map(np.float32),
)


@settings(max_examples=100)
@given(rows=st.lists(st.lists(_csv_value, max_size=6), max_size=6))
@example(rows=[[None, "00", True, False, 0, np.int64(-7)],
               [0.0, -0.0, np.float64(-0.0), 5e-324, np.float64(-2.5e-320), np.inf],
               [-np.inf, np.nan, np.float64(np.nan), 1e300, 123456789012345678]])
def test_csv_rows_are_per_value_formatting(rows):
    cfg = build_config("table1", {})
    head = experiments._csv(cfg, ["a", "b"], [], ["footer"])
    text = experiments._csv(cfg, ["a", "b"], rows, ["footer"])
    body = "".join(",".join(map(_csv_field_per_value, row)) + "\n" for row in rows)
    assert text == head.replace("# footer\n", body + "# footer\n")


def _counted(monkeypatch, module, name):
    """Wrap ``module.name``; the returned list collects each call's arguments."""
    fn, calls = getattr(module, name), []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_equal_doublets_share_a_trace_and_a_text(monkeypatch, system):
    a = 0.375
    freqs = np.linspace(-200.0, 200.0, 101)
    zero, minus_zero = Spectrum(0.0, a), Spectrum(-0.0, a)
    near = Spectrum(0.0, float(np.nextafter(a, 1.0)))  # one ulp above a
    assert zero == minus_zero and near != zero
    ys, ys_minus = (lorentzian_trace(s, system, freqs) for s in (zero, minus_zero))
    assert ys.tobytes() == ys_minus.tobytes()
    template = trace_template(freqs)
    assert format_trace(template, ys) == format_trace(template, ys_minus)
    assert not np.array_equal(ys, lorentzian_trace(near, system, freqs))
    # a run whose three panels get these doublets shares only the equal pair
    doublets = iter([zero, minus_zero, near])
    monkeypatch.setattr(experiments, "spectrum_from_populations", lambda p: next(doublets))
    traced = _counted(monkeypatch, experiments, "lorentzian_trace")
    formatted = _counted(monkeypatch, experiments, "format_trace")
    cfg = build_config("spectra", {"oracle.matching": "00;01;10", "r.values": "1",
                                   "freq.points": "101"})
    files = dict(experiments.run_spectra(cfg))
    assert [args[0] for args in traced] == [zero, near]
    assert len(formatted) == 2
    assert files["spectrum_k1_00_r1.txt"] is files["spectrum_k1_01_r1.txt"]
    assert files["spectrum_k1_10_r1.txt"] is not files["spectrum_k1_00_r1.txt"]


def test_spectra_formats_each_distinct_trace_once(monkeypatch):
    cfg = build_config("spectra", {"oracle.k": "2", "freq.points": "101"})
    traced = _counted(monkeypatch, experiments, "lorentzian_trace")
    formatted = _counted(monkeypatch, experiments, "format_trace")
    shared = dict(experiments.run_spectra(cfg))
    assert len(traced) == len({args[0] for args in traced}) == 24
    assert len(formatted) == len({args[1].tobytes() for args in formatted}) == 24
    assert len(shared) == 31  # 30 traces and the panel grid
    # each trace evaluated and formatted on its own gives the same files
    freqs = np.linspace(-cfg.freq_span, cfg.freq_span, cfg.freq_points)
    error = ErrorModel(eps_H=cfg.eps, eps_C=cfg.eps, delta_J=cfg.delta_j)
    for oracle in cfg.oracles:
        (ops,) = pulse_operators(3, [(oracle, cfg.styles[0])], cfg.system, [error])[0]
        for r in cfg.r_values:
            tag = "inf" if r is None else str(r)
            populations = target_populations(oracle) if r is None else crush(ops[r][:, 0])
            ys = lorentzian_trace(spectrum_from_populations(populations), cfg.system, freqs)
            text = format_trace(trace_template(freqs), ys)
            assert shared[f"spectrum_k2_{oracle.label()}_r{tag}.txt"] == text


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


# ---- pulse kernel: broadcast Kronecker product and one call's event table ----


def _memoised(event, system, error=ErrorModel()):
    """The kernel's factor: ``event``'s unitary under ``error``, from a fresh table."""
    (u,) = EventFactors(system, [error])(event)
    return u


def _factor_unmemoised(event, system, error):
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


def _normalized(event, error):
    """``(event, error)`` with plain-float fields and unsigned zero angle and phase."""
    angle, phase = float(event.angle) + 0.0, float(event.phase) + 0.0
    fields = {n: float(getattr(error, n)) for n in ("eps_H", "eps_C", "delta_J")}
    return dataclasses.replace(event, angle=angle, phase=phase), ErrorModel(**fields)


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
    # A cold (fresh) and then a warm (the same) table, with 0.0 seen first and
    # then -0.0 seen first. Bytes, unlike np.array_equal, also see the sign of
    # a zero.
    variants = _signed_zero_variants(event, error)
    for order in (variants, variants[::-1]):
        factors = EventFactors(system, [err for _, err in order])
        expected = [
            _factor_unmemoised(normalized, system, plain_err).tobytes()
            for normalized, plain_err in (_normalized(event, err) for _, err in order)
        ]
        for ev, _ in order + order:
            assert [u.tobytes() for u in factors(ev)] == expected
        # a -0.0 angle or phase, or a -0.0 error, gets the +0.0 event's array
        assert len({u.tobytes() for ev, _ in order for u in factors(ev)}) == 1


def _rot_xy_numpy(theta, phase):
    """The numpy-scalar form of ``_rot_xy`` that the plain-float one replaced."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -1j * np.exp(-1j * phase) * s],
                     [-1j * np.exp(1j * phase) * s, c]], dtype=complex)


_rot_angle = st.one_of(st.sampled_from([0.0, -0.0]),
                       st.integers(-12, 12).map(lambda n: n * np.pi / 2),
                       st.floats(-20.0, 20.0))


@settings(max_examples=200)
@given(theta=_rot_angle, phase=_rot_angle)
def test_rot_xy_is_bitwise_the_numpy_scalar_form(theta, phase):
    assert _rot_xy(theta, phase).tobytes() == _rot_xy_numpy(theta, phase).tobytes()


@settings(max_examples=50)
@given(event=_event, errors=st.lists(_error_model, min_size=1, max_size=4))
# a zero angle on both spins is where the sign of a zero angle or phase shows
@example(event=PulseEvent(RF_PULSE, frozenset("HC"), 0.0, 0.0), errors=[ErrorModel()])
def test_factor_reads_every_model_from_one_event_key(system, event, errors):
    # a table works out the event's key part once for all models: each factor
    # is bitwise a one-model table's, a warm lookup returns the cold lookup's
    # objects, and a -0.0 angle or phase, seen first by a cold table, gets the
    # +0.0 event's unitary
    variants = [ev for ev, _ in _signed_zero_variants(event, ErrorModel())]
    for order in (variants, variants[::-1]):
        factors = EventFactors(system, errors)
        cold = factors(order[0])
        for ev in order:
            hoisted = factors(ev)
            assert all(u is v for u, v in zip(hoisted, cold))
            assert [u.tobytes() for u in hoisted] == [
                EventFactors(system, [e])(ev)[0].tobytes() for e in errors
            ] == [
                _factor_unmemoised(normalized, system, plain).tobytes()
                for normalized, plain in (_normalized(ev, e) for e in errors)
            ]


def test_memo_gives_equal_values_one_array():
    # np.float32(0.1) == float(np.float32(0.1)) with one hash: both give the
    # plain-float unitary, in either order, from a cold table and then from the
    # same, warm table as one array
    x = np.float32(0.1)

    def inputs(v):  # (event, system, error), each with v in every float field
        return [
            (PulseEvent(RF_PULSE, frozenset("H"), v, v), SpinSystem(), ErrorModel(eps_H=v)),
            (rf_pulse("HC", 1.0, 0.5), SpinSystem(), ErrorModel(eps_C=v)),
            (coupling_delay(v), SpinSystem(J=v), ErrorModel(delta_J=v)),
        ]

    narrow, wide = inputs(x), inputs(float(x))
    assert narrow == wide
    expected = [_factor_unmemoised(*args).tobytes() for args in wide]
    for first, second in ((narrow, wide), (wide, narrow)):
        for (event, system, error), (again, _, _), want in zip(first, second, expected):
            factors = EventFactors(system, [error])
            (u,) = factors(event)
            assert u.tobytes() == want
            assert factors(again)[0] is u and factors(event)[0] is u


def test_memoised_unitaries_are_read_only(system):
    factors = EventFactors(system, [ErrorModel()])
    for event in (rf_pulse({"H", "C"}, np.pi / 2, 0.25), coupling_delay(1e-3)):
        (u,) = factors(event)
        assert u is factors(event)[0]  # shared by every lookup of the table
        with pytest.raises(ValueError, match="read-only"):
            u[0, 0] = 0.0
    # a product is the caller's own fresh array, also of a zero-event sequence,
    # when two calls share one warm table
    errors = [ErrorModel(), ErrorModel(eps_H=0.1)]
    many, one = EventFactors(system, errors), EventFactors(system, errors[:1])
    (gates,) = compile_gates([(ORACLES[0], "naive")], system)
    for make in (
        lambda: sequence_unitary(PulseSequence(()), system),
        lambda: sequence_unitary(PulseSequence((coupling_delay(1e-3),)), system),
        lambda: sequence_unitaries(PulseSequence(()), many),
        lambda: sequence_unitaries(PulseSequence((coupling_delay(1e-3),)), one),
        lambda: sequence_unitaries(gates["Rf"], many),
        lambda: pulse_operators(1, [(ORACLES[0], "naive")], system, errors)[0],
        lambda: pulse_operators(0, [(ORACLES[0], "naive")], system, errors[:1])[0],
    ):
        first, second = make(), make()
        assert first.flags.writeable and not np.shares_memory(first, second)
        expected = second.copy()
        first[...] = np.nan  # the next call is unharmed
        assert make().tobytes() == expected.tobytes()


def _sequence_unitary_unmemoised(sequence, system, error):
    u = np.eye(4, dtype=complex)
    for event in sequence.events:
        u = _factor_unmemoised(event, system, error) @ u
    return u


@settings(max_examples=50)
@given(
    pool=st.lists(_rf_event, min_size=1, max_size=6),
    picks=st.lists(st.integers(0, 6), min_size=1, max_size=60),
    error=_error_model,
)
def test_sequence_unitary_is_bitwise_the_unmemoised_product(system, pool, picks, error):
    # a repeated event reads the call's table warm
    pool = pool + [coupling_delay(1e-3)]
    # repeated objects, as compiled programs have, and equal distinct ones
    events = [pool[k % len(pool)] for k in picks] + [dataclasses.replace(pool[0])]
    seq = PulseSequence(tuple(events))
    u = sequence_unitary(seq, system, error)
    assert u.tobytes() == _sequence_unitary_unmemoised(seq, system, error).tobytes()


# error lists with repeated models, since grids repeat their eps and delta_J
_error_lists = st.lists(_error_model, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=8)
)


@settings(max_examples=50)
@given(
    pool=st.lists(_event, min_size=1, max_size=6),
    picks=st.lists(st.integers(0, 5), max_size=12),
    errors=_error_lists,
    data=st.data(),
)
def test_stack_is_bitwise_the_per_model_product(system, pool, picks, errors, data):
    seq = PulseSequence(tuple(pool[k % len(pool)] for k in picks))
    stack = sequence_unitaries(seq, EventFactors(system, errors))
    assert stack.shape == (len(errors), 4, 4)
    for u, error in zip(stack, errors):
        assert u.tobytes() == _sequence_unitary_unmemoised(seq, system, error).tobytes()
    # permuting the error list permutes the stack exactly
    perm = data.draw(st.permutations(range(len(errors))))
    permuted = sequence_unitaries(seq, EventFactors(system, [errors[i] for i in perm]))
    assert permuted.tobytes() == stack[perm].tobytes()


# zeros of both signs, and one model given twice
_SIGNED_ZEROS = [ErrorModel(0.0, -0.0, 0.0), ErrorModel(-0.0, 0.0, -0.0), ErrorModel(0.0, -0.0, 0.0)]


@settings(max_examples=8, deadline=None)
@given(errors=_error_lists, r=st.integers(0, 3), rng=st.randoms())
@example(errors=_SIGNED_ZEROS, r=3, rng=random.Random(0))
def test_operator_stack_is_bitwise_each_one_model_call(system, errors, r, rng):
    perm = rng.sample(range(len(errors)), len(errors))
    for oracle, style in itertools.product(ORACLES, STYLES):
        run = [(oracle, style)]
        ops = pulse_operators(r, run, system, errors)[0]
        assert ops.shape == (len(errors), r + 1, 4, 4)
        for row, error in zip(ops, errors):
            assert row.tobytes() == pulse_operators(r, run, system, [error])[0][0].tobytes()
        # permuting the error list permutes the rows exactly
        permuted = pulse_operators(r, run, system, [errors[i] for i in perm])[0]
        assert permuted.tobytes() == ops[perm].tobytes()


_runs = st.tuples(st.sampled_from(ORACLES), st.sampled_from(STYLES))


@settings(max_examples=20)
@given(
    runs=st.lists(_runs, min_size=1, max_size=4),
    errors=st.lists(_error_model, min_size=1, max_size=4),
    r=st.integers(0, 3),
    rng=st.randoms(),
)
# both styles and a repeated run in one list, so equal gates are shared
@example(runs=[(ORACLES[0], "naive"), (ORACLES[4], "bb1"), (ORACLES[0], "naive"),
               (ORACLES[1], "naive")], errors=_SIGNED_ZEROS, r=3, rng=random.Random(0))
def test_gate_set_stack_is_bitwise_each_one_set_call(system, runs, errors, r, rng):
    ops = pulse_operators(r, runs, system, errors)
    assert ops.shape == (len(runs), len(errors), r + 1, 4, 4)
    for row, run in zip(ops, runs):
        assert row.tobytes() == pulse_operators(r, [run], system, errors)[0].tobytes()
    # permuting the runs permutes the rows exactly
    perm = rng.sample(range(len(runs)), len(runs))
    permuted = pulse_operators(r, [runs[i] for i in perm], system, errors)
    assert permuted.tobytes() == ops[perm].tobytes()


def test_each_distinct_gate_is_simulated_once_per_run(monkeypatch):
    # only the oracle gates differ between oracles, and oracle 00's Rf is R0: the
    # 4 default robustness oracles hold 10 distinct gates of their 24, and
    # criterion 3's 20 runs 31 of 120
    simulated = _counted(monkeypatch, experiments, "sequence_unitary")
    list(experiments.run_robustness(build_config("robustness", {})))
    assert len({args[0] for args in simulated}) == len(simulated) == 10
    assert sum(len(args[0]) for args in simulated) == 58
    simulated.clear()
    assert verify._compilation_soundness()[0]
    assert len({args[0] for args in simulated}) == len(simulated) == 31
    assert sum(len(args[0]) for args in simulated) == 359


def test_each_pulse_operators_call_simulates_its_events_afresh(system, monkeypatch):
    # the event table lives for one call: each call simulates each of its
    # distinct events once, and an identical second call simulates them all
    # again, rotations included, so criterion 9's two runs both run the kernel
    # with nothing reset
    simulated = _counted(monkeypatch, pulses, "_event_unitary")
    rotations = _counted(monkeypatch, pulses, "_rot_xy")
    runs = [(oracle, style) for oracle in ORACLES[:4] for style in STYLES]
    errors = [ErrorModel(), ErrorModel(eps_H=0.1, eps_C=0.1), ErrorModel(delta_J=0.05)]
    first = pulse_operators(3, runs, system, errors)
    keys, n_rotations = list(simulated), len(rotations)
    simulated.clear()
    rotations.clear()
    second = pulse_operators(3, runs, system, errors)
    assert len(set(keys)) == len(keys) > 0
    assert simulated == keys and len(rotations) == n_rotations > 0
    assert second.tobytes() == first.tobytes()


@settings(max_examples=50)
@given(
    grid=st.lists(_error_field, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=8)
    ),
    rng=st.randoms(),
)
@example(grid=[0.0, -0.0, 0.05, 0.0, -0.05, -0.0], rng=random.Random(0))
def test_pulse_infidelities_grid_is_bitwise_each_one_eps_call(system, grid, rng):
    # each pulse is simulated once per grid; bits, by float.hex, match a call per eps
    def bits(grid):
        return [[x.hex() for x in xs] for xs in experiments.pulse_infidelities(grid, system)]

    naive, bb1 = bits(grid)
    assert len(naive) == len(bb1) == len(grid)
    for eps, i_n, i_b in zip(grid, naive, bb1):
        assert bits([eps]) == [[i_n], [i_b]]
    # permuting the grid permutes both lists exactly
    perm = rng.sample(range(len(grid)), len(grid))
    assert bits([grid[i] for i in perm]) == [[naive[i] for i in perm], [bb1[i] for i in perm]]


def test_an_empty_error_list_is_a_value_error(system):
    (gates,) = compile_gates([(ORACLES[0], "naive")], system)
    for simulate in (
        lambda: sequence_unitaries(gates["U"], EventFactors(system, [])),
        lambda: sequence_unitaries(PulseSequence(()), EventFactors(system, ())),
        lambda: pulse_operators(2, [(ORACLES[0], "naive")], system, [])[0],
    ):
        with pytest.raises(ValueError, match="errors is empty"):
            simulate()
    with pytest.raises(ValueError, match="runs is empty"):
        pulse_operators(2, [], system, [ErrorModel()])


# ---- readout: P(r) of a whole operator stack from one list of amplitudes ----


def _success_per_matrix(v, oracle):
    """The per-matrix numpy-scalar readout that the stack readout replaced."""
    amps = v[:, 0]
    return float(sum(abs(amps[i]) ** 2 for i in oracle.indices))


@settings(max_examples=100)
@given(
    batch=st.lists(st.integers(1, 3), max_size=2),
    seed=st.integers(0, 2**32 - 1),
    oracle=st.sampled_from(all_oracles(1) + all_oracles(2) + all_oracles(3)),
)
def test_stack_readout_is_bitwise_the_per_matrix_value(batch, seed, oracle):
    # random real and imaginary parts, a third of them zeros of either sign
    rng = np.random.default_rng(seed)
    parts = rng.normal(size=(2, *batch, 4, 4))
    parts[rng.random(parts.shape) < 1 / 3] = 0.0
    stack = np.empty(parts.shape[1:], complex)
    stack.real, stack.imag = np.copysign(parts, rng.choice([-1.0, 1.0], parts.shape))
    got = success_probability(stack, oracle)
    assert np.shape(got) == stack.shape[:-2]
    flat = [got] if stack.ndim == 2 else list(np.ravel(np.array(got, dtype=object)))
    assert all(type(p) is float for p in flat)
    assert [p.hex() for p in flat] == [
        _success_per_matrix(u, oracle).hex() for u in stack.reshape(-1, 4, 4)
    ]


# ---- compilation: one gate table per call, outside the error loops ----


def test_equal_arguments_compile_equal_programs():
    # J passes through float and the phase through a float64 array, so a
    # float32 J and phase compile exactly the float64 program (repr shows types)
    phase = np.float32(np.pi / 3)
    (narrow,) = compile_gates([(OracleSpec({"11"}, phase), "naive")],
                              SpinSystem(J=np.float32(150.0)))
    (wide,) = compile_gates([(OracleSpec({"11"}, float(phase)), "naive")],
                            SpinSystem(J=150.0))
    assert repr(narrow) == repr(wide)
    delays = [e.duration for e in narrow["Rf"].events if e.kind == DELAY]
    assert delays and all(type(t) is float for t in delays)


def _compile_one(oracle, system, style):
    """One run's six gates, each compiled afresh: the form the table replaced."""
    origin = origin_spec(oracle.phase)
    gates = {
        "U": [rf_pulse({"H", "C"}, np.pi / 2, np.pi / 2)],
        "Udag": [rf_pulse({"H", "C"}, np.pi / 2, 3 * np.pi / 2)],
        "Rf": compiler._phase_gate_events(oracle, system),
        "Rfdag": compiler._phase_gate_events(oracle.adjoint(), system),
        "R0": compiler._phase_gate_events(origin, system),
        "R0dag": compiler._phase_gate_events(origin.adjoint(), system),
    }
    if style == "bb1":
        gates = {label: compiler._bb1_rewrite(events) for label, events in gates.items()}
    return {label: PulseSequence(tuple(events)) for label, events in gates.items()}


_phase = st.sampled_from([np.pi / 3, -np.pi / 3, np.pi, 1.9]) | st.floats(-3.1, 3.1)
_typed_phase = st.tuples(_phase, st.sampled_from([float, np.float32, np.float64])).map(
    lambda pair: pair[1](pair[0])
).filter(bool)  # a zero phase is a ValueError
_compile_run = st.tuples(
    st.builds(OracleSpec, st.sampled_from(all_oracles(1) + all_oracles(2) + all_oracles(3))
              .map(lambda o: o.matching), _typed_phase),
    st.sampled_from(STYLES),
)


@settings(max_examples=60)
@given(
    runs=st.lists(_compile_run, min_size=1, max_size=6),
    system=st.builds(SpinSystem, st.floats(1.0, 1000.0) | st.just(np.float32(150.0))),
)
# a repeated run, oracle 00 beside another oracle, one float32 phase among float64
@example(runs=[(OracleSpec({"00"}), "naive"), (OracleSpec({"11"}), "bb1"),
               (OracleSpec({"00"}, np.float32(np.pi / 3)), "naive"),
               (OracleSpec({"11"}), "naive"), (OracleSpec({"00"}), "naive")],
         system=SpinSystem())
def test_gate_table_is_each_run_compiled_on_its_own(runs, system):
    gate_sets = compile_gates(runs, system)
    assert len(gate_sets) == len(runs)
    for gates, (oracle, style) in zip(gate_sets, runs):
        assert gates == _compile_one(oracle, system, style)
    # a gate is one object for every run of its style that compiles it
    for (gates, (oracle, style)), (other, (oracle2, style2)) in itertools.product(
        zip(gate_sets, runs), repeat=2
    ):
        if style != style2:
            continue
        assert gates["U"] is other["U"] and gates["Udag"] is other["Udag"]
        if float(oracle.phase) != float(oracle2.phase):  # float32 == float64 is in float32
            continue
        assert gates["R0"] is other["R0"] and gates["R0dag"] is other["R0dag"]
        if oracle.matching == oracle2.matching:
            assert gates["Rf"] is other["Rf"] and gates["Rfdag"] is other["Rfdag"]
        if oracle.matching == {"00"}:
            assert gates["Rf"] is other["R0"] and gates["Rfdag"] is other["R0dag"]


def _per_pulse_operators_call(monkeypatch):
    """Wrap ``pulse_operators``; the returned list collects each call's phase-gate
    solves and gate simulations."""
    solves = _counted(monkeypatch, compiler, "_phase_gate_events")
    simulated = _counted(monkeypatch, experiments, "sequence_unitary")
    fn, calls = experiments.pulse_operators, []

    def counted(*args):
        solves.clear()
        simulated.clear()
        ops = fn(*args)
        calls.append((len(solves), len(simulated)))
        return ops

    for module in (experiments, verify):
        monkeypatch.setattr(module, "pulse_operators", counted)
    return calls


@pytest.mark.parametrize("caller, counts", [
    # 4 naive k=1 oracles: Rf and Rfdag of each, where R0 and R0dag are oracle 00's
    (lambda: list(experiments.run_robustness(build_config("robustness", {}))), (8, 10)),
    (verify._error_tolerance, (8, 10)),
    # 10 k <= 2 oracles, 20 phase gates per style; 31 distinct gates of the 44
    (verify._compilation_soundness, (40, 31)),
    (lambda: list(experiments.run_curves(build_config("k1-curves", {}))), (16, 20)),
], ids=["robustness", "criterion-4", "criterion-3", "k1-curves"])
def test_each_distinct_gate_is_compiled_once_per_call(monkeypatch, caller, counts):
    calls = _per_pulse_operators_call(monkeypatch)
    caller()
    assert calls == [counts]


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
