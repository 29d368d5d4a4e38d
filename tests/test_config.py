from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsearch.config import (
    EXPERIMENT_NAMES,
    MAX_EPS_POINTS,
    MAX_FREQ_POINTS,
    MAX_GRID_VALUES,
    ConfigError,
    apply_overrides,
    build_config,
    config_hash,
    default_mapping,
    parse_config_text,
)
from fpsearch.experiments import run_experiment


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


class TestBuild:
    def test_defaults(self):
        cfg = build_config("table1", {})
        assert cfg.r_max == 4
        assert cfg.table_k1.label() == "11"
        assert cfg.table_k2.label() == "00+01"

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
        cfg = build_config("k1-curves", {"system.j": "100.0"})
        assert cfg.system.J == 100.0

    @pytest.mark.parametrize(
        "experiment,key,cap,value",
        [
            ("spectra", "freq.points", str(MAX_FREQ_POINTS), str(MAX_FREQ_POINTS + 1)),
            ("bb1-scaling", "eps.points", str(MAX_EPS_POINTS), str(MAX_EPS_POINTS + 1)),
            ("robustness", "error.eps", ",".join(["0"] * MAX_GRID_VALUES),
             ",".join(["0"] * (MAX_GRID_VALUES + 1))),
            ("robustness", "error.delta_j", ",".join(["0"] * MAX_GRID_VALUES),
             ",".join(["0"] * (MAX_GRID_VALUES + 1))),
            ("k1-curves", "system.j", "1e9", "1.1e9"),
            ("spectra", "system.t2_h", "1e-9", "0.9e-9"),
            ("spectra", "freq.span", "1e9", "1.1e9"),
            ("spectra", "freq.span", "1e-9", "0.9e-9"),
        ],
    )
    def test_resource_caps(self, experiment, key, cap, value):
        # validation only: neither value is ever run, so nothing of the
        # capped size is allocated
        build_config(experiment, {key: cap})
        with pytest.raises(ConfigError, match=key):
            build_config(experiment, {key: value})


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
    "oracle.k1": ("00",),
    "oracle.k2": ("01+10",),
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

# Keys that change no output byte below the CSV header. Ideal P(r) depends
# only on k, so table1's representative sets are inert. J cancels from
# every delay phase (a delay programmed as -gamma/(pi*J) evolves under
# pi*J*(1+delta_J)), T2 only sets the line widths that spectra draws, and
# t90 never enters a unitary.
_SYSTEM_KEYS = ("system.j", "system.t90", "system.t2_h", "system.t2_c")
INERT_KEYS = {
    ("table1", "oracle.k1"),
    ("table1", "oracle.k2"),
    *((name, key) for name in ("k1-curves", "k2-curves", "robustness", "bb1-scaling")
      for key in _SYSTEM_KEYS),
    ("spectra", "system.t90"),
    ("spectra", "system.t2_c"),
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
