import importlib
import tarfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsearch.config import (
    EXPERIMENT_NAMES,
    MAGNITUDE_RANGE,
    MAX_EPS_POINTS,
    MAX_FREQ_POINTS,
    MAX_GRID_VALUES,
    MAX_TRACE_POINTS,
    ConfigError,
    apply_overrides,
    build_config,
    config_hash,
    default_mapping,
    parse_config_text,
)
from fpsearch.experiments import run_experiment
from fpsearch.pulses import SpinSystem


class TestParse:
    def test_basic(self):
        text = """
        # comment
        experiment.key = value
        other = 1, 2, 3
        """
        assert parse_config_text(text) == {
            "experiment.key": "value",
            "other": "1, 2, 3",
        }

    def test_rejects_bare_lines(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words")

    def test_error_names_the_line(self):
        with pytest.raises(ConfigError, match="^line 3: expected"):
            parse_config_text("# header\na = 1\nnonsense")

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2")

    @settings(max_examples=200)
    @given(
        st.text(
            st.sampled_from("ab.= #\t\n\r\x0b\x1c\u2028") | st.characters()
        )
    )
    def test_arbitrary_text_raises_only_config_error(self, text):
        try:
            mapping = parse_config_text(text)
        except ConfigError:
            return
        assert all(isinstance(k, str) and k for k in mapping)
        assert all(isinstance(v, str) for v in mapping.values())

    def test_overrides(self):
        m = apply_overrides({"a": "1"}, ["a=2", "b = 3"])
        assert m == {"a": "2", "b": "3"}
        with pytest.raises(ConfigError):
            apply_overrides({}, ["novalue"])


def _grid(n: int) -> str:
    """A comma list of n distinct error values."""
    return ",".join(f"{i / 1000:g}" for i in range(n))


# freq.points is tested at its own cap on one matching set and one order,
# where the total trace-point cap does not apply
CAP_CONTEXT = {"freq.points": {"oracle.matching": "00", "r.values": "0"}}


class TestBuild:
    def test_defaults(self):
        cfg = build_config("table1", {})
        assert cfg.r_max == 4
        assert set(default_mapping("table1")) == {"output.dir", "r.max"}

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            build_config("table1", {"oracle.matchin": "11"})

    def test_inapplicable_key_rejected(self):
        # the gate-level table takes no pulse-system overrides
        with pytest.raises(ConfigError, match="unknown keys"):
            build_config("table1", {"system.j": "200"})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            build_config("tables", {})

    def test_oracle_selection(self):
        cfg = build_config("k1-curves", {"oracle.matching": "00;11"})
        assert [o.label() for o in cfg.oracles] == ["00", "11"]
        # the config puts the sets in label order, whatever order they are given in
        cfg = build_config("k1-curves", {"oracle.matching": "11;00"})
        assert [o.label() for o in cfg.oracles] == ["00", "11"]
        cfg = build_config("k2-curves", {"oracle.matching": "00+01;10+01"})
        assert sorted(o.label() for o in cfg.oracles) == ["00+01", "01+10"]

    def test_oracle_k_mismatch(self):
        with pytest.raises(ConfigError, match="expected 1"):
            build_config("k1-curves", {"oracle.matching": "00+01"})

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="error.eps"):
            build_config("k1-curves", {"error.eps": "lots"})

    def test_error_grid_bounds(self):
        with pytest.raises(ConfigError):
            build_config("robustness", {"error.eps": "0, 1.5"})

    def test_empty_output_dir(self):
        # "" would write into the working directory
        with pytest.raises(ConfigError, match="^output.dir: empty path$"):
            build_config("table1", {"output.dir": ""})

    def test_r_cap(self):
        with pytest.raises(ConfigError, match="recursion order"):
            build_config("k1-curves", {"r.max": "9"})

    def test_bb1_grid_validation(self):
        with pytest.raises(ConfigError, match="eps grid"):
            build_config("bb1-scaling", {"eps.max": "0.5"})
        with pytest.raises(ConfigError, match="eps grid"):
            build_config("bb1-scaling", {"eps.min": "1e-4"})

    def test_spectra_orders(self):
        cfg = build_config("spectra", {"r.values": "0,2,inf"})
        assert cfg.r_values == (0, 2, None)
        with pytest.raises(ConfigError):
            build_config("spectra", {"r.values": "0,-1"})

    def test_system_overrides(self):
        cfg = build_config("spectra", {"system.j": "100.0", "system.t2_h": "0.5"})
        assert cfg.system == SpinSystem(J=100.0, T2_H=0.5)

    @pytest.mark.parametrize(
        "experiment,key,cap,value",
        [
            ("spectra", "freq.points", str(MAX_FREQ_POINTS), str(MAX_FREQ_POINTS + 1)),
            ("bb1-scaling", "eps.points", str(MAX_EPS_POINTS), str(MAX_EPS_POINTS + 1)),
            pytest.param("robustness", "error.eps", _grid(MAX_GRID_VALUES),
                         _grid(MAX_GRID_VALUES + 1), id="robustness-error.eps-64-65"),
            pytest.param("robustness", "error.delta_j", _grid(MAX_GRID_VALUES),
                         _grid(MAX_GRID_VALUES + 1), id="robustness-error.delta_j-64-65"),
            ("spectra", "system.j", "1e9", "1.1e9"),
            ("spectra", "system.t2_h", "1e-9", "0.9e-9"),
            ("spectra", "freq.span", "1e9", "1.1e9"),
            ("spectra", "freq.span", "1e-9", "0.9e-9"),
            ("spectra", "freq.points", "2", "1"),
            ("bb1-scaling", "eps.points", "2", "1"),
            ("spectra", "oracle.k", "2", "3"),
        ],
    )
    def test_resource_caps(self, experiment, key, cap, value):
        # validation only: neither value is ever run, so nothing of the
        # capped size is allocated
        context = CAP_CONTEXT.get(key, {})
        build_config(experiment, {**context, key: cap})
        with pytest.raises(ConfigError, match=key):
            build_config(experiment, {**context, key: value})

    def test_caps_are_the_documented_values(self):
        assert (MAX_FREQ_POINTS, MAX_EPS_POINTS, MAX_GRID_VALUES) == (100001, 1000, 64)
        assert MAX_TRACE_POINTS == 1_000_000
        assert MAGNITUDE_RANGE == (1e-9, 1e9)

    def test_bb1_grid_ends_are_accepted(self):
        cfg = build_config("bb1-scaling", {"eps.min": "1e-3", "eps.max": "1e-1"})
        assert (cfg.eps_min, cfg.eps_max) == (1e-3, 1e-1)
        with pytest.raises(ConfigError, match="eps grid"):
            build_config("bb1-scaling", {"eps.min": "0.01", "eps.max": "0.01"})

    def test_trace_point_cap(self):
        # validation only, as above: one matching set x 10 orders x
        # freq.points, at the total cap and one grid point over it
        orders = {"oracle.matching": "00", "r.values": "0,1,2,3,4,5,6,7,8,inf"}
        points = MAX_TRACE_POINTS // 10
        build_config("spectra", {**orders, "freq.points": str(points)})
        with pytest.raises(ConfigError, match="trace points"):
            build_config("spectra", {**orders, "freq.points": str(points + 1)})


class TestHash:
    def test_stable_and_order_insensitive(self):
        a = config_hash({"x": "1", "y": "2"})
        b = config_hash({"y": "2", "x": "1"})
        assert a == b and len(a) == 16

    def test_output_location_excluded(self):
        a = config_hash({"x": "1", "output.dir": "here"})
        b = config_hash({"x": "1", "output.dir": "there"})
        assert a == b

    def test_sensitive_to_values(self):
        assert config_hash({"x": "1"}) != config_hash({"x": "2"})

    def test_robustness_hash_matches_benchmark_golden(self, monkeypatch):
        # the golden robustness.csv of the sweep-r5 benchmark workload
        # records its config hash; removing or renaming a robustness key
        # before that copy is re-recorded fails every benchmark run
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(bench))
        (command,) = importlib.import_module("workloads").sweep_r5(0).commands
        cfg = build_config(command.experiment, command.mapping(Path("out")))
        with tarfile.open(bench / "golden" / "sweep-r5-seed0.tar.xz") as tar:
            header = tar.extractfile("robustness.csv").readline().decode()
        assert header.split()[-1] == f"config={cfg.hash()}"


def test_default_mapping_round_trips():
    for name in ("table1", "k1-curves", "robustness", "bb1-scaling", "spectra"):
        mapping = default_mapping(name)
        cfg = build_config(name, mapping)
        assert cfg.experiment == name
        assert cfg.mapping == mapping


# Small base configs with nonzero errors wherever they are accepted: at zero
# error the robustness residuals are rounding noise, which would make
# inert keys look live.
INERT_BASE = {
    "table1": {"r.max": "2"},
    "k1-curves": {"oracle.matching": "01", "r.max": "1", "style": "naive",
                  "error.eps": "0.05", "error.delta_j": "0.05"},
    "k2-curves": {"oracle.matching": "00+01", "r.max": "1",
                  "error.eps": "0.05", "error.delta_j": "0.05"},
    "robustness": {"oracle.matching": "01", "r.max": "2",
                   "error.eps": "0.05", "error.delta_j": "0.05"},
    "bb1-scaling": {"eps.points": "3"},
    "spectra": {"r.values": "1,inf", "freq.points": "51",
                "error.eps": "0.05", "error.delta_j": "0.05"},
}

# Candidate replacement values per key; the first valid one that differs
# from the base value is used.
INERT_ALTERNATIVES = {
    "r.max": ("1", "2"),
    "oracle.matching": ("10", "01+10"),
    "oracle.k": ("2",),
    "style": ("bb1",),
    "error.eps": ("0.05", "0.02"),
    "error.delta_j": ("0.05", "0.02"),
    "system.j": ("150",),
    "system.t90": ("30e-6",),
    "system.t2_h": ("0.8",),
    "system.t2_c": ("0.3",),
    "eps.min": ("2e-3",),
    "eps.max": ("2e-2",),
    "eps.points": ("4",),
    "r.values": ("0,inf",),
    "freq.span": ("100",),
    "freq.points": ("41",),
}

# Keys that change no output byte below the CSV header. Only robustness
# has any: J cancels from every delay phase (a delay programmed as
# -gamma/(pi*J) evolves under pi*J*(1+delta_J)), T2 only sets the line
# widths that spectra draws, and t90 and T2_C enter nothing. Its config
# hash, which covers all four, is pinned by the benchmark's golden copy.
INERT_KEYS = {
    ("robustness", key)
    for key in ("system.j", "system.t90", "system.t2_h", "system.t2_c")
}


def _outputs(experiment: str, mapping: dict[str, str], out_dir: Path) -> dict[str, bytes]:
    cfg = build_config(experiment, {**mapping, "output.dir": str(out_dir)})
    out = {}
    for path in run_experiment(cfg):
        data = path.read_bytes()
        if path.suffix == ".csv":
            data = data.split(b"\n", 1)[1]  # drop the config-hash line
        out[path.name] = data
    return out


def _alternative(experiment: str, mapping: dict[str, str], key: str) -> dict[str, str]:
    for value in INERT_ALTERNATIVES[key]:
        if value == mapping[key]:
            continue
        changed = {**mapping, key: value}
        try:
            build_config(experiment, changed)
        except ConfigError:
            continue
        return changed
    raise AssertionError(f"no valid alternative for {experiment} {key}")


def test_inert_keys(tmp_path):
    inert = set()
    for experiment in EXPERIMENT_NAMES:
        base = {**default_mapping(experiment), **INERT_BASE[experiment]}
        del base["output.dir"]
        reference = _outputs(experiment, base, tmp_path / experiment)
        for key in base:
            changed = _alternative(experiment, base, key)
            if _outputs(experiment, changed, tmp_path / f"{experiment}-{key}") == reference:
                inert.add((experiment, key))
    assert inert == INERT_KEYS
