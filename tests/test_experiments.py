import math
import re

import numpy as np
import pytest

from fpsearch import experiments, svgplot
from fpsearch.compiler import compile_gates
from fpsearch.config import EXPERIMENT_NAMES, build_config
from fpsearch.experiments import (
    EXPERIMENTS,
    eps_grid,
    fit_loglog_slope,
    pulse_infidelities,
    run_experiment,
)
from fpsearch.pulses import NO_ERROR, SpinSystem, UnitarityError
from fpsearch.search import OracleSpec, operators


def test_pulse_operators_check_every_order(monkeypatch, system):
    # simulated gates are unitary; an order-1 product 1e-9 off unitary must raise
    drift = np.diag([np.sqrt(1.0 + 1e-9), 1.0, 1.0, 1.0])

    def drifted(r_max, gates):
        return [v if r == 0 else drift @ v for r, v in enumerate(operators(r_max, gates))]

    monkeypatch.setattr(experiments, "operators", drifted)
    gates = compile_gates(OracleSpec({"11"}), system, "naive")
    with pytest.raises(UnitarityError, match="order-1 operator"):
        experiments.pulse_operators(1, gates, system, NO_ERROR)


def _read_csv(path):
    lines = [
        ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")
    ]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _comments(path):
    return [ln for ln in path.read_text().splitlines() if ln.startswith("#")]


class TestTable1:
    def test_values_and_schema(self, tmp_path):
        cfg = build_config("table1", {"output.dir": str(tmp_path)})
        (path,) = run_experiment(cfg)
        header, rows = _read_csv(path)
        assert header == ["r", "P_k1_closed", "P_k1_sim", "P_k2_closed", "P_k2_sim", "Q"]
        assert len(rows) == 5
        r2 = rows[2]
        assert float(r2[1]) == pytest.approx(0.9249, abs=5e-5)
        assert float(r2[3]) == pytest.approx(0.9980, abs=5e-5)
        assert int(r2[5]) == 4
        assert int(rows[4][5]) == 40
        comment = _comments(path)[0]
        assert "schema=1" in comment and "config=" in comment

    def test_twelve_significant_digits(self, tmp_path):
        cfg = build_config("table1", {"output.dir": str(tmp_path)})
        (path,) = run_experiment(cfg)
        _, rows = _read_csv(path)
        assert rows[1][1] == "0.578125"
        assert len(rows[2][1].replace("0.", "")) >= 11


class TestCurves:
    def test_k1_ideal_matches_closed_form(self, tmp_path):
        cfg = build_config(
            "k1-curves",
            {"output.dir": str(tmp_path), "oracle.matching": "11", "style": "naive"},
        )
        csv_path, svg_path = run_experiment(cfg)
        header, rows = _read_csv(csv_path)
        assert header == ["oracle", "r", "style", "P_pulse", "P_estimated", "P_closed"]
        for row in rows:
            assert row[0] == "11" and row[2] == "naive"
            assert float(row[3]) == pytest.approx(float(row[5]), abs=1e-9)
            assert float(row[4]) == pytest.approx(float(row[5]), abs=1e-9)
        assert svg_path.read_text().startswith("<svg")

    def test_k1_under_rf_error_shows_late_order_drop(self, tmp_path):
        # rf miscalibration also corrupts the transverse pulses inside the
        # phase gates, so the success probability rises at low order and
        # then falls back at r=3 instead of converging
        cfg = build_config(
            "k1-curves",
            {
                "output.dir": str(tmp_path),
                "style": "naive",
                "error.eps": "0.05",
            },
        )
        csv_path, _ = run_experiment(cfg)
        _, rows = _read_csv(csv_path)
        by_oracle = {}
        for row in rows:
            by_oracle.setdefault(row[0], []).append((int(row[1]), float(row[3])))
        drops = 0
        for label, points in by_oracle.items():
            ps = [p for _, p in sorted(points)]
            assert ps[0] < ps[1] < ps[2], label
            drops += ps[3] < ps[2]
        assert drops >= 1

    def test_k2_no_signal_oracles_skip_estimate(self, tmp_path):
        cfg = build_config("k2-curves", {"output.dir": str(tmp_path), "r.max": "1"})
        csv_path, _ = run_experiment(cfg)
        _, rows = _read_csv(csv_path)
        silent = {"00+10", "01+11"}
        for row in rows:
            if row[0] in silent:
                assert row[4] == ""
            else:
                assert row[4] != ""


class TestRobustness:
    def test_residual_columns(self, tmp_path):
        cfg = build_config(
            "robustness",
            {
                "output.dir": str(tmp_path),
                "oracle.matching": "00;01",
                "r.max": "2",
                "error.eps": "0,0.1",
                "error.delta_j": "0,0.05",
            },
        )
        csv_path, svg_path = run_experiment(cfg)
        header, rows = _read_csv(csv_path)
        assert header == ["oracle", "eps", "delta_j", "r", "P_pulse", "cube_residual"]
        for row in rows:
            if int(row[3]) == 0:
                assert row[5] == ""
        clean = [
            float(row[5])
            for row in rows
            if row[1] == "0" and row[2] == "0" and row[5] != ""
        ]
        assert max(clean) < 1e-10
        broken = [
            float(row[5])
            for row in rows
            if row[2] == "0.05" and int(row[3]) == 1 and row[1] == "0"
        ]
        assert min(broken) > 1e-6
        assert svg_path.read_text().startswith("<svg")

    def test_zero_error_cell_plots_at_the_floor(self, monkeypatch):
        # the default eps=0, delta_j=0 residual is rounding noise below the
        # 1e-12 cube-law bound; it plots at the floor, not at its last bits
        plotted = []
        monkeypatch.setattr(
            svgplot, "xy_plot", lambda series, **_: plotted.extend(series) or ""
        )
        list(EXPERIMENTS["robustness"][0](build_config("robustness", {})))
        assert plotted[0].label == "delta_j=0" and plotted[0].xs[0] == 0.0
        assert plotted[0].ys[0] == -12.0

    def test_order_zero_cells_plot_at_the_floor(self, monkeypatch):
        # at r.max=0 no cell has a residual; each plots at the floor too
        plotted = []
        monkeypatch.setattr(
            svgplot, "xy_plot", lambda series, **_: plotted.extend(series) or ""
        )
        cfg = build_config("robustness", {"r.max": "0", "oracle.matching": "00"})
        list(EXPERIMENTS["robustness"][0](cfg))
        assert [s.ys for s in plotted] == [[-12.0] * 4] * 2


def test_plot_of_one_point():
    # both ranges are empty: each axis spans one unit up from the point
    # (plus 5% padding on y), and a single point draws no line
    svg = svgplot.xy_plot([svgplot.Series("p", [2.0], [3.0], marker="circle")],
                          title="t", xlabel="x", ylabel="y")
    ticks = re.findall(r'font-size="10"[^>]*>([^<]*)</text>', svg)
    assert ticks == ["2", "3", "2.95", "4.05"]
    assert "<polyline" not in svg and svg.count("<circle") == 2
    two = svgplot.xy_plot([svgplot.Series("p", [2.0, 3.0], [3.0, 4.0])],
                          title="t", xlabel="x", ylabel="y")
    assert two.count("<polyline") == 1


class TestBB1Scaling:
    def test_slopes_and_footer(self, tmp_path):
        cfg = build_config("bb1-scaling", {"output.dir": str(tmp_path)})
        csv_path, _ = run_experiment(cfg)
        header, rows = _read_csv(csv_path)
        assert header == ["eps", "infidelity_naive", "infidelity_bb1", "P0_naive", "P0_bb1"]
        assert len(rows) == 8
        footers = [c for c in _comments(csv_path) if "slope" in c]
        slope_naive = float(footers[0].split("=")[1])
        slope_bb1 = float(footers[1].split("=")[1])
        assert slope_naive == pytest.approx(2.0, abs=0.2)
        assert slope_bb1 == pytest.approx(6.0, abs=0.5)

    def test_grid_and_helpers(self):
        cfg = build_config("bb1-scaling", {})
        grid = eps_grid(cfg)
        assert len(grid) == 8
        assert grid[0] == pytest.approx(1e-3) and grid[-1] == pytest.approx(1e-2)
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert max(ratios) - min(ratios) < 1e-9
        i_n, i_b = pulse_infidelities(0.0, SpinSystem())
        assert i_n <= 1e-12 and i_b <= 1e-12

    def test_fit_recovers_power_law(self):
        xs = [1e-3 * 10 ** (i / 4) for i in range(8)]
        ys = [3.0 * x**4 for x in xs]
        assert fit_loglog_slope(xs, ys) == pytest.approx(4.0, abs=1e-9)


class TestSpectra:
    def test_trace_files_and_panel(self, tmp_path):
        cfg = build_config(
            "spectra",
            {
                "output.dir": str(tmp_path),
                "oracle.matching": "00",
                "r.values": "0,inf",
                "freq.points": "101",
            },
        )
        paths = run_experiment(cfg)
        names = sorted(p.name for p in paths)
        assert names == [
            "spectra_k1.svg",
            "spectrum_k1_00_r0.txt",
            "spectrum_k1_00_rinf.txt",
        ]
        inf_trace = np.loadtxt(tmp_path / "spectrum_k1_00_rinf.txt")
        assert inf_trace.shape == (101, 2)
        peak_row = inf_trace[np.argmax(inf_trace[:, 1])]
        assert peak_row[0] == pytest.approx(97.4, abs=5.0)
        r0 = np.loadtxt(tmp_path / "spectrum_k1_00_r0.txt")
        assert np.max(np.abs(r0[:, 1])) < 1e-9

    def test_k2_target_both_positive(self, tmp_path):
        cfg = build_config(
            "spectra",
            {
                "output.dir": str(tmp_path),
                "oracle.k": "2",
                "oracle.matching": "00+01",
                "r.values": "inf",
                "freq.points": "6001",
            },
        )
        paths = run_experiment(cfg)
        trace = np.loadtxt(tmp_path / "spectrum_k2_00+01_rinf.txt")
        left = trace[trace[:, 0] > 50]
        right = trace[trace[:, 0] < -50]
        assert np.max(left[:, 1]) > 0.45 and np.max(right[:, 1]) > 0.45
        assert np.min(trace[:, 1]) > -1e-9


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_runners_touch_no_files(name, tmp_path):
    out = tmp_path / "out"
    mapping = {"output.dir": str(out)}
    if name == "spectra":
        mapping["freq.points"] = "101"
    cfg = build_config(name, mapping)
    texts = list(EXPERIMENTS[name][0](cfg))
    assert not out.exists()
    names = [n for n, _ in texts]
    assert len(set(names)) == len(names)
    paths = run_experiment(cfg)
    assert paths == [out / n for n in names]
    for path, (_, text) in zip(paths, texts):
        assert path.read_bytes() == text.encode()
