"""Executable acceptance checks.

Each check exercises one end-to-end guarantee of the package at a pinned
tolerance. ``ALL_CHECKS`` declares all nine as ``(name, time limit, body)``
rows in criterion order, so criterion N is row N. A body returns ``(passed,
detail)``; ``run_all``, the one runner, passes each row to ``_timed`` for a
``CheckResult``, and ``fpsearch verify`` prints one line per result. Checks
are self-contained and leave no files behind: the table check writes into a
temporary directory, and the determinism check compares the texts two runs of
each experiment yield, in memory (each simulation call memoises its own
events, so both runs simulate them). Pulse-level checks take the experiments'
path: criterion 3 passes its 20 (oracle, style) runs to one
``pulse_operators`` call, and criteria 4 and 5 read ``residual_rows``,
robustness's table.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import readout
from .compiler import STYLES, compile_algorithm
from .config import EXPERIMENT_NAMES, build_config
from .experiments import (
    EXPERIMENTS,
    eps_grid,
    estimated_success,
    fit_loglog_slope,
    pulse_infidelities,
    pulse_operators,
    residual_rows,
    run_experiment,
)
# sequence_unitary is unused here; perfbench/tracer.py wraps it under this name.
from .pulses import NO_ERROR, SpinSystem, sequence_unitary
from .search import (
    STATES,
    OracleSpec,
    all_oracles,
    closed_form_success,
    cube_residuals,
    equal_up_to_global_phase,
    expand_gate_list,
    ideal_gates,
    operators,
    phase_oracle,
    recursive_operator,
    success_probability,
)

TABLE1_K1 = (0.2500, 0.5781, 0.9249, 0.9996, 1.0000)
TABLE1_K2 = (0.5000, 0.8750, 0.9980, 1.0000, 1.0000)
TABLE1_Q = (0, 1, 4, 13, 40)

# Regression values for the coupling-miscalibration residual at r=1
# (eps=0, delta_J=0.05, naive style), pinned by the brute-force pulse
# simulator in tests/bruteforce.py before the main build. The 00/11 and
# 01/10 pairs coincide because their compiled delay durations do.
COUPLING_RESIDUALS_R1 = {
    "00": 4.399371286309e-02,
    "01": 1.931733297291e-02,
    "10": 1.931733297291e-02,
    "11": 4.399371286309e-02,
}


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    seconds: float


def _timed(name: str, limit: float | None, body) -> CheckResult:
    start = time.perf_counter()
    try:
        passed, detail = body()
    except Exception as exc:  # a crash is a failed check, not a crash of verify
        elapsed = time.perf_counter() - start
        return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}", elapsed)
    elapsed = time.perf_counter() - start
    if passed and limit is not None and elapsed >= limit:
        passed, detail = False, f"{detail}; runtime {elapsed:.2f}s exceeds {limit}s"
    return CheckResult(name, passed, detail, elapsed)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [
        ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")
    ]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def _table1():
    with tempfile.TemporaryDirectory() as tmp:
        cfg = build_config("table1", {"output.dir": tmp})
        (path,) = run_experiment(cfg)
        header, rows = _read_csv(path)
    if header != ["r", "P_k1_closed", "P_k1_sim", "P_k2_closed", "P_k2_sim", "Q"]:
        return False, f"table1.csv columns {header}"
    worst_ref, worst_sim = 0.0, 0.0
    for row in rows:
        r = int(row[0])
        c1, s1, c2, s2, q = (float(row[1]), float(row[2]), float(row[3]),
                             float(row[4]), int(row[5]))
        worst_ref = max(worst_ref, abs(s1 - TABLE1_K1[r]), abs(s2 - TABLE1_K2[r]))
        worst_sim = max(worst_sim, abs(s1 - c1), abs(s2 - c2))
        if q != TABLE1_Q[r]:
            return False, f"query count at r={r}: {q} != {TABLE1_Q[r]}"
    ok = worst_ref <= 5e-5 and worst_sim <= 1e-12
    return ok, (
        f"max |P - reference| = {worst_ref:.2e} (<= 5e-5), "
        f"max |sim - closed| = {worst_sim:.2e} (<= 1e-12)"
    )


def _cube_law_ideal():
    worst = 0.0
    oracles = all_oracles(1) + all_oracles(2) + all_oracles(3)[:2]
    for oracle in oracles:
        probs = success_probability(operators(4, ideal_gates(oracle)), oracle)
        worst = max(worst, *cube_residuals(probs))
    return worst <= 1e-12, f"max residual {worst:.2e} (<= 1e-12)"


def _compilation_soundness():
    system = SpinSystem()
    oracles = all_oracles(1) + all_oracles(2)
    runs = [(oracle, style) for oracle in oracles for style in STYLES]
    simulated = dict(zip(runs, pulse_operators(3, runs, system, [NO_ERROR])))
    for oracle in oracles:
        ideal = operators(3, ideal_gates(oracle))
        for r in range(4):
            for style in STYLES:
                u = simulated[oracle, style][0, r]
                if not equal_up_to_global_phase(u, ideal[r], 1e-10):
                    return False, (
                        f"{style} r={r} oracle={oracle.label()} deviates "
                        "from the gate-level operator"
                    )
    gates = expand_gate_list(3)
    # an oracle gate is Rf or its inverse, an origin gate R0 or its inverse
    n_rf = sum(1 for g in gates if g in ("Rf", "Rfdag"))
    n_r0 = sum(1 for g in gates if g in ("R0", "R0dag"))
    if (n_rf, n_r0) != (13, 13):
        return False, f"r=3 gate list has {n_rf} Rf / {n_r0} R0, expected 13/13"
    counts = {
        o.label(): compile_algorithm(3, o, system, style="naive").rf_pulse_count()
        for o in all_oracles(1)
    }
    bad = {k: v for k, v in counts.items() if not 150 <= v <= 250}
    if bad:
        return False, f"naive r=3 rf pulse count outside [150,250]: {bad}"
    return True, (
        "all 10 oracles, r<=3, both styles sound at 1e-10; "
        f"13/13 oracle gates; naive r=3 rf counts {sorted(set(counts.values()))}"
    )


def _error_tolerance():
    eps_values = (-0.1, -0.05, -0.02, 0.02, 0.05, 0.1)
    rows = residual_rows(3, all_oracles(1), SpinSystem(), eps_values, (0.0,))
    steps = [row for row in rows if row[3]]  # order 0 has no residual
    label, eps, _, r, _, worst = max(steps, key=lambda row: row[5])
    return worst <= 1e-9, (  # named by its step's first order, r - 1
        f"max pulse-level cube residual {worst:.3e} at eps={eps} oracle={label} "
        f"r={r - 1} (bound 1e-9)"
    )


def _coupling_error_breaks_fixed_point():
    rows = residual_rows(1, all_oracles(1), SpinSystem(), (0.0,), (0.05,))
    residuals = {label: res for label, _, _, r, _, res in rows if r}  # r = 1
    if max(residuals.values()) <= 1e-6:
        return False, f"no oracle exceeds 1e-6: {residuals}"
    drift = max(
        abs(residuals[k] - COUPLING_RESIDUALS_R1[k]) for k in residuals
    )
    return drift <= 1e-9, (
        f"residuals {{00: {residuals['00']:.6e}, 01: {residuals['01']:.6e}}} "
        f"> 1e-6; regression drift {drift:.2e} (<= 1e-9)"
    )


def _bb1_scaling():
    system = SpinSystem()
    grid = eps_grid(build_config("bb1-scaling", {}))
    inf_n, inf_b = pulse_infidelities(grid, system)
    slope_n = fit_loglog_slope(grid, inf_n)
    slope_b = fit_loglog_slope(grid, inf_b)
    (zero_n,), (zero_b,) = pulse_infidelities([0.0], system)
    ok = (
        abs(slope_n - 2.0) <= 0.2
        and abs(slope_b - 6.0) <= 0.5
        and zero_n <= 1e-12
        and zero_b <= 1e-12
    )
    return ok, (
        f"slopes naive {slope_n:.3f} (2 +- 0.2), bb1 {slope_b:.3f} (6 +- 0.5); "
        f"zero-error infidelities {zero_n:.1e}, {zero_b:.1e}"
    )


def _readout_round_trip():
    patterns = {}
    for oracle in all_oracles(1):
        spec = readout.reference_spectrum(oracle)
        component = "left" if abs(spec.left_amp) > abs(spec.right_amp) else "right"
        amp = spec.left_amp if component == "left" else spec.right_amp
        patterns[oracle.label()] = (component, "+" if amp > 0 else "-")
    expected = {  # four distinct patterns
        "00": ("left", "+"),
        "01": ("right", "+"),
        "10": ("left", "-"),
        "11": ("right", "-"),
    }
    if patterns != expected:
        return False, f"k=1 patterns {patterns} != {expected}"
    both_pos = readout.reference_spectrum(OracleSpec(frozenset({"00", "01"})))
    if not (both_pos.left_amp > 0 and both_pos.right_amp > 0):
        return False, "00+01 target is not both-components-positive"
    mixed = readout.reference_spectrum(OracleSpec(frozenset({"01", "10"})))
    if not (mixed.left_amp < 0 and mixed.right_amp > 0):
        return False, "01+10 target is not left-negative/right-positive"

    worst = 0.0
    visible = [o for o in all_oracles(1) + all_oracles(2)
               if readout.is_signal_visible(o)]
    for oracle in visible:
        for r in range(4):
            p_est = estimated_success(recursive_operator(r, oracle), oracle)
            worst = max(worst, abs(p_est - closed_form_success(r, oracle.k)))
    return worst <= 1e-9, (
        f"4 distinct k=1 patterns match; k=2 signs match; "
        f"round-trip max error {worst:.2e} (<= 1e-9)"
    )


def _equivalences():
    full = OracleSpec(frozenset(STATES), np.pi / 3)
    if not equal_up_to_global_phase(phase_oracle(full), np.eye(4), 1e-12):
        return False, "k=4 oracle is not the identity up to global phase"
    for k in (1, 2, 3):
        for oracle in all_oracles(k):
            comp = oracle.complement().adjoint()
            if not equal_up_to_global_phase(
                phase_oracle(oracle), phase_oracle(comp), 1e-12
            ):
                return False, (
                    f"complement equivalence fails for {oracle.label()}"
                )
    worst = 0.0
    for oracle in all_oracles(1, phase=np.pi):
        p1 = success_probability(recursive_operator(1, oracle), oracle)
        worst = max(worst, abs(p1 - 1.0))
    return worst <= 1e-12, (
        "k=4 is identity; complement-with-negated-phase matches; "
        f"classic single step reaches P=1 within {worst:.2e}"
    )


def _determinism():
    for name in EXPERIMENT_NAMES:
        runner, _ = EXPERIMENTS[name]
        first, second = [dict(runner(build_config(name, {}))) for _ in range(2)]
        if first.keys() != second.keys():
            return False, f"{name}: file sets differ between runs"
        diff = [k for k in first if first[k] != second[k]]
        if diff:
            return False, f"{name}: bytes differ for {diff}"
    n = len(EXPERIMENT_NAMES)
    return True, f"all {n} experiments byte-identical across repeat runs"


ALL_CHECKS = (
    ("table1 reproduction", 1.0, _table1),
    ("ideal cube law (gate level)", 1.0, _cube_law_ideal),
    ("compilation soundness", 10.0, _compilation_soundness),
    ("rf-error tolerance (pulse level)", 30.0, _error_tolerance),
    ("coupling error breaks fixed point", 5.0, _coupling_error_breaks_fixed_point),
    ("BB1 infidelity scaling", 1.0, _bb1_scaling),
    ("readout truth table and round trip", 5.0, _readout_round_trip),
    ("oracle equivalences", None, _equivalences),
    ("experiment determinism", None, _determinism),
)


def run_all() -> list[CheckResult]:
    return [_timed(name, limit, body) for name, limit, body in ALL_CHECKS]
