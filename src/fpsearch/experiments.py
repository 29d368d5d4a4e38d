"""Named experiments: tables, curves, error sweeps, and spectra.

Every experiment is a pure function of its configuration: a generator of
``(file name, text)`` pairs (CSV, SVG and spectrum traces) that touches no
file system. :func:`run_experiment` is the only writer; it writes each text
into the configured output directory as it is yielded. Runs are
bit-reproducible: iteration orders are sorted, nothing draws randomness,
and all numeric output is formatted explicitly. CSV files carry a header
comment with the schema version and a hash of the effective configuration.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from pathlib import Path

import numpy as np

from . import svgplot
# compile_algorithm is unused here; perfbench/tracer.py wraps it under this name.
from .compiler import compile_algorithm, compile_gates
from .config import ExperimentConfig
from .pulses import ErrorModel, EventFactors, PulseSequence, rf_pulse, bb1_expand
from .pulses import NO_ERROR, SpinSystem, rotation_infidelity, check_unitary
# pulses.sequence_unitaries, under the name perfbench/tracer.py wraps to time gate
# simulation; a traced run fails when no call passes through it (ROADMAP item 1)
from .pulses import sequence_unitaries as sequence_unitary
from .readout import (
    Spectrum,
    crush,
    estimate_probability,
    format_trace,
    is_signal_visible,
    lorentzian_trace,
    reference_spectrum,
    spectrum_from_populations,
    target_populations,
    trace_template,
)
from .search import (
    OracleSpec,
    closed_form_success,
    cube_residuals,
    operators,
    query_count,
    recursive_operator,
    success_probability,
)

SCHEMA_VERSION = 1

_MARKER_CYCLE = ("square", "circle", "diamond", "star")


def _csv(
    cfg: ExperimentConfig,
    columns: list[str],
    rows: list[Sequence],
    footer: list[str] | None = None,
) -> str:
    lines = [
        f"# fpsearch schema={SCHEMA_VERSION} experiment={cfg.experiment} "
        f"config={cfg.hash()}"
    ]
    lines.append(",".join(columns))
    for row in rows:  # "" for None, a str as it is, any number as %.12g of its float
        lines.append(",".join(["" if v is None else v if isinstance(v, str) else "%.12g" % v
                               for v in row]))
    for comment in footer or []:
        lines.append(f"# {comment}")
    return "\n".join(lines) + "\n"


def pulse_operators(
    r_max: int,
    runs: Sequence[tuple[OracleSpec, str]],
    system: SpinSystem,
    errors: Sequence[ErrorModel],
) -> np.ndarray:
    """Unitaries of the compiled order-0..r_max programs of each (oracle, style)
    run under each of ``errors``.

    The runs are compiled by one :func:`fpsearch.compiler.compile_gates` call on
    ``system``, in which equal gates are one object. Each gate object is
    simulated once for the whole error list (only the oracle gates differ
    between oracles of one phase and style), and one
    :func:`fpsearch.search.operators` recursion, whose products broadcast, runs
    on ``(len(runs), len(errors), 4, 4)`` stacks. Element ``[i, j, r]`` of the
    ``(len(runs), len(errors), r_max + 1, 4, 4)`` result is
    order r of ``runs[i]`` under ``errors[j]``: bitwise the one-run, one-model
    call, and ``pulses.sequence_unitary`` of ``compile_algorithm(r, ...)`` up to
    the rounding of reassociated products.
    """
    if not runs:
        raise ValueError("runs is empty; give at least one (oracle, style) pair")
    factors = EventFactors(system, errors)  # shared by every gate of the call
    gate_sets = compile_gates(runs, system)
    stack_of: dict[int, np.ndarray] = {}  # by id: equal gates of one call are one object
    for seq in (seq for gates in gate_sets for seq in gates.values()):
        if id(seq) not in stack_of:
            stack_of[id(seq)] = sequence_unitary(seq, factors)
    stacks = {label: np.stack([stack_of[id(gates[label])] for gates in gate_sets])
              for label in gate_sets[0]}
    del stack_of  # the stacks hold copies (~10 MB at the 64 x 64 grid cap)
    ops = operators(r_max, stacks)
    models = [error for _ in runs for error in errors]  # each matrix's model
    for r in range(1, r_max + 1):  # V(0) is U's stack, checked as it was simulated
        check_unitary(ops[..., r, :, :], f"order-{r} operator", models)
    return ops


def residual_rows(
    r_max: int,
    oracles: Sequence[OracleSpec],
    system: SpinSystem,
    eps_values: Sequence[float],
    delta_j_values: Sequence[float],
) -> list[list]:
    """``[oracle label, eps, delta_j, r, P(r), cube residual]`` rows, by oracle,
    eps, delta_j and r, of naive runs with rf error eps on both spins. A row's
    :func:`fpsearch.search.cube_residuals` entry, None at r = 0, is that of the
    step from order r - 1 to r: its distance from the ideal contraction."""
    grid = [(eps, dj) for eps in eps_values for dj in delta_j_values]
    errors = [ErrorModel(eps_H=eps, eps_C=eps, delta_J=dj) for eps, dj in grid]
    runs = [(oracle, "naive") for oracle in oracles]
    rows = []
    for oracle, by_error in zip(oracles, pulse_operators(r_max, runs, system, errors)):
        label = oracle.label()
        for (eps, dj), probs in zip(grid, success_probability(by_error, oracle)):
            residuals = [None, *cube_residuals(probs)]
            for r, (p, residual) in enumerate(zip(probs, residuals)):
                rows.append([label, eps, dj, r, p, residual])
    return rows


def estimated_success(u: np.ndarray, oracle: OracleSpec) -> float | None:
    """Round trip through the spectral readout chain; None when no signal."""
    if not is_signal_visible(oracle):
        return None
    spec = spectrum_from_populations(crush(u[:, 0]))
    return estimate_probability(spec, reference_spectrum(oracle), oracle)


def run_table1(cfg: ExperimentConfig) -> Iterator[tuple[str, str]]:
    """Closed-form and simulated success probabilities with query counts."""
    k1, k2 = OracleSpec({"11"}), OracleSpec({"00", "01"})
    rows = []
    for r in range(cfg.r_max + 1):
        rows.append(
            [
                r,
                closed_form_success(r, 1),
                success_probability(recursive_operator(r, k1), k1),
                closed_form_success(r, 2),
                success_probability(recursive_operator(r, k2), k2),
                query_count(r),
            ]
        )
    columns = ["r", "P_k1_closed", "P_k1_sim", "P_k2_closed", "P_k2_sim", "Q"]
    yield "table1.csv", _csv(cfg, columns, rows)


def run_curves(cfg: ExperimentConfig) -> Iterator[tuple[str, str]]:
    """Success probability against recursion order, pulse level and closed form."""
    k = cfg.oracle_k
    error = ErrorModel(eps_H=cfg.eps, eps_C=cfg.eps, delta_J=cfg.delta_j)
    system = SpinSystem()
    rows = []
    series: list[svgplot.Series] = []
    runs = [(oracle, style) for oracle in cfg.oracles for style in cfg.styles]
    ops_by_run = pulse_operators(cfg.r_max, runs, system, [error])
    for i, ((oracle, style), (ops,)) in enumerate(zip(runs, ops_by_run)):
        ys = success_probability(ops, oracle)
        for r, (u, p) in enumerate(zip(ops, ys)):
            p_est = estimated_success(u, oracle)
            rows.append([oracle.label(), r, style, p, p_est, closed_form_success(r, k)])
        xs = [float(r) for r in range(len(ys))]
        mark = _MARKER_CYCLE[i // len(cfg.styles) % len(_MARKER_CYCLE)]
        series.append(svgplot.Series(f"{oracle.label()} {style}", xs, ys, marker=mark))
    smooth_x = [i * 0.05 for i in range(int(cfg.r_max / 0.05) + 1)]
    smooth_y = [closed_form_success(x, k) for x in smooth_x]
    series.insert(0, svgplot.Series("closed form", smooth_x, smooth_y, dashed=True))
    name = cfg.experiment
    columns = ["oracle", "r", "style", "P_pulse", "P_estimated", "P_closed"]
    yield f"{name}.csv", _csv(cfg, columns, rows)
    yield f"{name}.svg", svgplot.xy_plot(
        series,
        title=f"success probability, {k} matching state(s)",
        xlabel="recursion order r",
        ylabel="P",
    )


def run_robustness(cfg: ExperimentConfig) -> Iterator[tuple[str, str]]:
    """Cube-law residuals (:func:`residual_rows`) over an (rf, coupling) error grid."""
    rows = residual_rows(cfg.r_max, cfg.oracles, cfg.system, cfg.eps_values,
                         cfg.delta_j_values)
    worst: dict[tuple[float, float], float] = {}  # largest residual of each cell
    for _, eps, dj, _, _, residual in rows:  # None at order 0
        worst[eps, dj] = max(worst.get((eps, dj), 0.0), residual or 0.0)
    columns = ["oracle", "eps", "delta_j", "r", "P_pulse", "cube_residual"]
    yield "robustness.csv", _csv(cfg, columns, rows)
    series = []
    for dj in cfg.delta_j_values:
        xs = [eps for eps in cfg.eps_values]
        # the ideal cube law holds to 1e-12; rounding noise below it plots at -12
        ys = [
            math.log10(max(worst[eps, dj], 1e-12))
            for eps in cfg.eps_values
        ]
        series.append(svgplot.Series(f"delta_j={dj:g}", xs, ys, marker="circle"))
    yield "robustness.svg", svgplot.xy_plot(
        series,
        title="fixed-point contraction residual",
        xlabel="rf amplitude error eps",
        ylabel="log10 max cube residual",
    )


def eps_grid(cfg: ExperimentConfig) -> list[float]:
    lo, hi, n = math.log10(cfg.eps_min), math.log10(cfg.eps_max), cfg.eps_points
    return [10.0 ** (lo + (hi - lo) * i / (n - 1)) for i in range(n)]


def pulse_infidelities(grid: Sequence[float], system: SpinSystem) -> tuple[list, list]:
    """Infidelities of a naive and a BB1 90-degree proton pulse at each eps of
    ``grid``; each pulse is simulated once for the whole grid."""
    naive = PulseSequence((rf_pulse("H", np.pi / 2, 0.0),))
    factors = EventFactors(system, [ErrorModel(eps_H=eps, eps_C=eps) for eps in grid])
    (ideal,) = sequence_unitary(naive, EventFactors(system, [NO_ERROR]))
    return tuple(
        [rotation_infidelity(ideal, u) for u in sequence_unitary(seq, factors)]
        for seq in (naive, PulseSequence(bb1_expand(np.pi / 2, 0.0, {"H"})))
    )


def fit_loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs))
    ly = np.log(np.asarray(ys))
    return float(np.polyfit(lx, ly, 1)[0])


def run_bb1_scaling(cfg: ExperimentConfig) -> Iterator[tuple[str, str]]:
    """Infidelity scaling of naive against BB1 pulses, plus r=0 success."""
    oracle = cfg.oracles[0]
    system = SpinSystem()
    gates = compile_gates([(oracle, style) for style in ("naive", "bb1")], system)
    grid = eps_grid(cfg)
    factors = EventFactors(system, [ErrorModel(eps_H=eps, eps_C=eps) for eps in grid])
    simulated = [sequence_unitary(g["U"], factors) for g in gates]
    p0 = [success_probability(stack, oracle) for stack in simulated]
    inf_naive, inf_bb1 = pulse_infidelities(grid, system)
    rows = list(zip(grid, inf_naive, inf_bb1, *p0))
    slope_n = fit_loglog_slope(grid, inf_naive)
    slope_b = fit_loglog_slope(grid, inf_bb1)
    columns = ["eps", "infidelity_naive", "infidelity_bb1", "P0_naive", "P0_bb1"]
    footer = [f"slope_naive={slope_n:.12g}", f"slope_bb1={slope_b:.12g}"]
    yield "bb1_scaling.csv", _csv(cfg, columns, rows, footer)
    series = [
        svgplot.Series(
            "naive", [math.log10(e) for e in grid],
            [math.log10(v) for v in inf_naive], marker="circle",
        ),
        svgplot.Series(
            "bb1", [math.log10(e) for e in grid],
            [math.log10(v) for v in inf_bb1], marker="square",
        ),
    ]
    yield "bb1_scaling.svg", svgplot.xy_plot(
        series,
        title="90-degree pulse infidelity",
        xlabel="log10 eps",
        ylabel="log10 infidelity",
    )


def run_spectra(cfg: ExperimentConfig) -> Iterator[tuple[str, str]]:
    """Rendered doublet spectra per oracle and recursion order.

    The ``inf`` column holds the directly prepared target state. All panels
    share one vertical scale; the frequency axis increases right to left.
    """
    style = cfg.styles[0]
    error = ErrorModel(eps_H=cfg.eps, eps_C=cfg.eps, delta_J=cfg.delta_j)
    freqs = np.linspace(-cfg.freq_span, cfg.freq_span, cfg.freq_points)
    panels: list[list[svgplot.Panel]] = []
    peak = 0.0
    entries: list[tuple[str, str, Spectrum]] = []  # (oracle label, r tag, doublet)
    # intensities on freqs, one per doublet: Spectrum(0.0, a) == Spectrum(-0.0, a),
    # and the two traces are bitwise equal, since +0.0 + -0.0 is +0.0
    traces: dict[Spectrum, np.ndarray] = {}
    r_top = max((r for r in cfg.r_values if r is not None), default=0)
    runs = [(oracle, style) for oracle in cfg.oracles]
    ops_by_oracle = pulse_operators(r_top, runs, cfg.system, [error])
    for oracle, (ops,) in zip(cfg.oracles, ops_by_oracle):
        row: list[svgplot.Panel] = []
        for r in cfg.r_values:
            if r is None:
                populations = target_populations(oracle)
                tag = "inf"
            else:
                populations = crush(ops[r][:, 0])
                tag = str(r)
            spec = spectrum_from_populations(populations)
            if spec not in traces:
                traces[spec] = lorentzian_trace(spec, cfg.system, freqs)
                peak = max(peak, float(np.max(np.abs(traces[spec]))))
            entries.append((oracle.label(), tag, spec))
            row.append(
                svgplot.Panel(
                    row_label=oracle.label(),
                    col_label=f"r={tag}",
                    xs=freqs,
                    ys=traces[spec],
                )
            )
        panels.append(row)

    # equal doublets (every oracle's r=0) share one text, held until its last use
    ordered = sorted(entries, key=lambda entry: entry[:2])
    last = {spec: i for i, (_, _, spec) in enumerate(ordered)}
    texts: dict[Spectrum, str] = {}
    template = trace_template(freqs)
    for i, (label, tag, spec) in enumerate(ordered):
        text = texts.pop(spec, None) or format_trace(template, traces[spec])
        if last[spec] > i:
            texts[spec] = text
        yield f"spectrum_k{cfg.oracle_k}_{label}_r{tag}.txt", text
    title = f"proton doublet spectra, {cfg.oracle_k} matching state(s)"
    yield f"spectra_k{cfg.oracle_k}.svg", svgplot.panel_grid(panels, title, peak,
                                                              reverse_x=True)


EXPERIMENTS = {
    "table1": (run_table1, "success probabilities and query counts by order"),
    "k1-curves": (run_curves, "P(r) curves for single-match oracles"),
    "k2-curves": (run_curves, "P(r) curves for two-match oracles"),
    "robustness": (run_robustness, "cube-law residuals over an error grid"),
    "bb1-scaling": (run_bb1_scaling, "naive vs BB1 infidelity scaling"),
    "spectra": (run_spectra, "rendered doublet spectra per oracle and order"),
}


def run_experiment(cfg: ExperimentConfig) -> list[Path]:
    """Run ``cfg``'s experiment, writing each file into ``cfg.out_dir`` as it
    is yielded; return the paths in the order written."""
    runner, _ = EXPERIMENTS[cfg.experiment]
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in runner(cfg):
        path = out / name
        path.write_text(text, newline="\n")
        paths.append(path)
    return paths
