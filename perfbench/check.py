"""Correctness of each benchmark iteration's outputs.

The expected files of a workload come from a golden copy for the default
seed (recorded by ``record_golden.py``) and, for other seeds, from
``compile_algorithm`` + ``sequence_unitary`` with the readout arithmetic
and text formats recomputed here, outside the timed region. An output
file passes when its text fields equal the expected ones and its numbers
agree: CSV and trace numbers within 1e-9 (relative above magnitude 1),
SVG coordinates within one unit of their 6 printed significant digits.
"""

from __future__ import annotations

import math
import re
import tarfile
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, Workload

GOLDEN = Path(__file__).resolve().parent / "golden"
NUMERIC_TOL = 1e-9
SVG_DIGITS = 6
CSV_TEXT_COLUMNS = {"oracle", "style"}
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


# ---------------------------------------------------------------------------
# expected outputs

def golden_path(workload: str) -> Path:
    return GOLDEN / f"{workload}-seed{DEFAULT_SEED}.tar.xz"


def load_golden(workload: str) -> dict[str, bytes]:
    with tarfile.open(golden_path(workload), "r:xz") as tar:
        return {m.name: tar.extractfile(m).read() for m in tar.getmembers() if m.isfile()}


def expected_files(workload: Workload, seed: int) -> dict[str, bytes]:
    """File name -> expected bytes for one iteration; empty for ``verify``."""
    if not any(c.experiment for c in workload.commands):
        return {}
    if seed == DEFAULT_SEED:
        return load_golden(workload.name)
    out: dict[str, bytes] = {}
    for command in workload.commands:
        out.update(reference_outputs(command))
    return out


def reference_outputs(command) -> dict[str, bytes]:
    from fpsearch.config import build_config

    cfg = build_config(command.experiment, command.mapping(Path("out")))
    if command.experiment == "robustness":
        return _reference_robustness(cfg)
    if command.experiment == "spectra":
        return _reference_spectra(cfg)
    raise ValueError(f"no reference for experiment {command.experiment!r}")


def _unitary(r, oracle, system, style, error):
    from fpsearch.compiler import compile_algorithm
    from fpsearch.pulses import sequence_unitary

    return sequence_unitary(compile_algorithm(r, oracle, system, style=style), system, error)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return f"{float(value):.12g}"


def _csv(cfg, columns, rows) -> bytes:
    lines = [f"# fpsearch schema=1 experiment={cfg.experiment} config={cfg.hash()}",
             ",".join(columns)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _reference_robustness(cfg) -> dict[str, bytes]:
    from fpsearch import svgplot
    from fpsearch.pulses import ErrorModel

    rows, worst = [], {}
    for oracle in sorted(cfg.oracles, key=lambda o: o.label()):
        for eps in cfg.eps_values:
            for dj in cfg.delta_j_values:
                error = ErrorModel(eps_H=eps, eps_C=eps, delta_J=dj)
                probs = []
                for r in range(cfg.r_max + 1):
                    amps = _unitary(r, oracle, cfg.system, "naive", error)[:, 0]
                    probs.append(float(sum(abs(amps[i]) ** 2 for i in oracle.indices)))
                    residual = None
                    if r >= 1:
                        residual = abs((1.0 - probs[r]) - (1.0 - probs[r - 1]) ** 3)
                        worst[eps, dj] = max(worst.get((eps, dj), 0.0), residual)
                    rows.append([oracle.label(), eps, dj, r, probs[r], residual])
    series = [
        svgplot.Series(
            f"delta_j={dj:g}",
            list(cfg.eps_values),
            [math.log10(max(worst.get((eps, dj), 0.0), 1e-18)) for eps in cfg.eps_values],
            marker="circle",
        )
        for dj in cfg.delta_j_values
    ]
    svg = svgplot.xy_plot(series, title="fixed-point contraction residual",
                          xlabel="rf amplitude error eps",
                          ylabel="log10 max cube residual")
    columns = ["oracle", "eps", "delta_j", "r", "P_pulse", "cube_residual"]
    return {"robustness.csv": _csv(cfg, columns, rows), "robustness.svg": svg.encode()}


def _lorentzian(populations, system, freqs) -> np.ndarray:
    """Doublet trace from diagonal populations, as ``readout`` renders it."""
    left, right = float(populations[0] - populations[2]), float(populations[1] - populations[3])
    hwhm = 1.0 / (2.0 * np.pi * system.T2_H)
    y = np.zeros_like(freqs)
    for amp, f0 in ((left, system.J / 2.0), (right, -system.J / 2.0)):
        y += amp * hwhm**2 / ((freqs - f0) ** 2 + hwhm**2)
    return np.column_stack([freqs, y])


def _reference_spectra(cfg) -> dict[str, bytes]:
    from fpsearch import svgplot
    from fpsearch.pulses import ErrorModel

    error = ErrorModel(eps_H=cfg.eps, eps_C=cfg.eps, delta_J=cfg.delta_j)
    freqs = np.linspace(-cfg.freq_span, cfg.freq_span, cfg.freq_points)
    k = cfg.oracle_k
    out: dict[str, bytes] = {}
    panels, peak = [], 0.0
    for oracle in sorted(cfg.oracles, key=lambda o: o.label()):
        row = []
        for r in cfg.r_values:
            if r is None:
                populations = np.zeros(4)
                populations[list(oracle.indices)] = 1.0 / k
                tag = "inf"
            else:
                psi = _unitary(r, oracle, cfg.system, cfg.styles[0], error)[:, 0]
                populations = np.real(np.diag(np.outer(psi, psi.conj())))
                tag = str(r)
            trace = _lorentzian(populations, cfg.system, freqs)
            peak = max(peak, float(np.max(np.abs(trace[:, 1]))))
            text = "".join(f"{f:.12g} {y:.12g}\n" for f, y in trace)
            out[f"spectrum_k{k}_{oracle.label()}_r{tag}.txt"] = text.encode()
            row.append(svgplot.Panel(oracle.label(), f"r={tag}", list(trace[:, 0]),
                                     list(trace[:, 1])))
        panels.append(row)
    svg = svgplot.panel_grid(panels, title=f"proton doublet spectra, {k} matching state(s)",
                             y_limit=peak if peak > 0 else 1.0, reverse_x=True)
    out[f"spectra_k{k}.svg"] = svg.encode()
    return out


# ---------------------------------------------------------------------------
# comparison

def _numbers_agree(actual: list[str], expected: list[str], svg: bool) -> bool:
    a = np.array([float(x) for x in actual])
    e = np.array([float(x) for x in expected])
    if svg:
        magnitude = np.floor(np.log10(np.maximum(np.abs(e), 1e-300)))
        # one unit in the last printed digit, with slack for binary rounding
        unit = np.where(e == 0, 10.0 ** -SVG_DIGITS, 10.0 ** (magnitude - SVG_DIGITS + 1))
        tol = unit * (1.0 + 1e-6)
    else:
        tol = NUMERIC_TOL * np.maximum(1.0, np.abs(e))
    return bool(np.all(np.abs(a - e) <= tol))


def _compare_tokens(actual: str, expected: str, svg: bool) -> str | None:
    a_text, e_text = _NUMBER.split(actual), _NUMBER.split(expected)
    if a_text != e_text:
        return "text differs"
    if not _numbers_agree(_NUMBER.findall(actual), _NUMBER.findall(expected), svg):
        return "numbers differ beyond tolerance"
    return None


def _compare_csv(actual: str, expected: str) -> str | None:
    a_lines, e_lines = actual.split("\n"), expected.split("\n")
    if len(a_lines) != len(e_lines):
        return f"{len(a_lines)} lines, expected {len(e_lines)}"
    header: list[str] = []
    for a_line, e_line in zip(a_lines, e_lines):
        if e_line.startswith("#") or not header:  # comments and the column names
            if a_line != e_line:
                return f"header line differs: {a_line!r}"
            if not e_line.startswith("#"):
                header = e_line.split(",")
            continue
        a_cells, e_cells = a_line.split(","), e_line.split(",")
        if len(a_cells) != len(e_cells):
            return f"row {a_line!r} has {len(a_cells)} cells"
        for column, a_cell, e_cell in zip(header, a_cells, e_cells):
            if a_cell == e_cell:
                continue
            if column in CSV_TEXT_COLUMNS or not a_cell or not e_cell:
                return f"{column} is {a_cell!r}, expected {e_cell!r}"
            try:
                value, ref = float(a_cell), float(e_cell)
            except ValueError:
                return f"{column} is {a_cell!r}, expected {e_cell!r}"
            if not abs(value - ref) <= NUMERIC_TOL * max(1.0, abs(ref)):
                return f"{column} is {a_cell}, expected {e_cell}"
    return None


def compare_file(name: str, actual: bytes, expected: bytes) -> str | None:
    """None when ``actual`` passes against ``expected``, else the reason."""
    if actual == expected:
        return None
    try:
        a_text, e_text = actual.decode(), expected.decode()
    except UnicodeDecodeError:
        return "not UTF-8 text"
    if name.endswith(".csv"):
        return _compare_csv(a_text, e_text)
    return _compare_tokens(a_text, e_text, svg=name.endswith(".svg"))


def compare_tree(out_dir: Path, expected: dict[str, bytes]) -> tuple[list[str], int, int]:
    """Check every file under ``out_dir``: (problems, identical files, files)."""
    found = {p.relative_to(out_dir).as_posix(): p for p in out_dir.rglob("*") if p.is_file()}
    problems = []
    if found.keys() != expected.keys():
        missing = sorted(expected.keys() - found.keys())
        extra = sorted(found.keys() - expected.keys())
        problems.append(f"file set differs: missing {missing[:3]}, extra {extra[:3]}")
    identical = 0
    for name in sorted(found.keys() & expected.keys()):
        actual = found[name].read_bytes()
        identical += actual == expected[name]
        reason = compare_file(name, actual, expected[name])
        if reason:
            problems.append(f"{name}: {reason}")
    return problems, identical, len(expected)


# ---------------------------------------------------------------------------
# fpsearch verify

_VERIFY_LINE = re.compile(r"^\[(PASS|FAIL)\] (.*?) \(\d+\.\d+s\): (.*)$")
_RESIDUAL = re.compile(r"max pulse-level cube residual (\S+) at")
VERIFY_CHECKS = 9
EXPECTED_FAILURES = [4]


def check_verify_output(stdout: str) -> tuple[list[str], float | None]:
    """Problems with a ``fpsearch verify`` report, and criterion 4's residual.

    The report passes when it has one line per check and exactly criterion
    4, the documented deliberate failure, fails.
    """
    lines = [m for m in map(_VERIFY_LINE.match, stdout.splitlines()) if m]
    if len(lines) != VERIFY_CHECKS:
        return [f"{len(lines)} check lines, expected {VERIFY_CHECKS}"], None
    failed = [i for i, m in enumerate(lines, start=1) if m.group(1) == "FAIL"]
    problems = []
    if failed != EXPECTED_FAILURES:
        problems.append(f"failing checks {failed}, expected {EXPECTED_FAILURES}")
    residual = _RESIDUAL.search(lines[3].group(3))
    return problems, float(residual.group(1)) if residual else None
