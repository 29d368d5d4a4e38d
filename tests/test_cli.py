import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fpsearch import cli, pulses
from fpsearch.cli import main
from fpsearch.config import EXPERIMENT_NAMES, default_mapping
from fpsearch.verify import CheckResult


def test_list_names_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("table1", "k1-curves", "k2-curves", "robustness",
                 "bb1-scaling", "spectra"):
        assert name in out


def test_run_table1_prints_paths(tmp_path, capsys):
    code = main(["run", "table1", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == [str(tmp_path / "table1.csv")]
    assert (tmp_path / "table1.csv").exists()


def test_run_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# one matching state\n"
        "oracle.matching = 11\n"
        "r.max = 1\n"
        "style = naive\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", "k1-curves", "--config", str(cfg)]) == 0
    text = (tmp_path / "out" / "k1-curves.csv").read_text()
    assert "11,0,naive" in text and "11,1,naive" in text


def test_override_beats_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("r.max = 3\n")
    assert (
        main(
            [
                "run",
                "table1",
                "--config",
                str(cfg),
                "--override",
                "r.max=2",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        == 0
    )
    rows = [
        ln
        for ln in (tmp_path / "out" / "table1.csv").read_text().splitlines()
        if ln and not ln.startswith(("#", "r,"))
    ]
    assert len(rows) == 3


def test_unknown_key_exits_2(tmp_path, capsys):
    code = main(["run", "table1", "--override", "bogus.key=1", "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["run", "table1", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2


def test_bad_value_exits_2(tmp_path, capsys):
    code = main(
        ["run", "k1-curves", "--override", "error.eps=2.0", "--out", str(tmp_path)]
    )
    assert code == 2


_RANGE = "outside [1e-09, 1e+09]"


# Each case names the key it breaks and why: exit 2 alone would also pass
# for a key the experiment does not take ("unknown keys").
@pytest.mark.parametrize(
    "experiment,args,reason",
    [
        ("spectra", ["--override", "system.j=-1"], f"system.j: -1 {_RANGE}"),
        ("spectra", ["--override", "system.t2_h=0"], f"system.t2_h: 0 {_RANGE}"),
        ("robustness", ["--override", "system.t90=0"], f"system.t90: 0 {_RANGE}"),
        ("robustness", ["--override", "system.t2_c=0"], f"system.t2_c: 0 {_RANGE}"),
        ("k1-curves", ["--config", "latin-1.cfg"], "'utf-8' codec can't decode"),
        ("spectra", ["--override", "system.j=1e-320"], f"system.j: 1e-320 {_RANGE}"),
        ("spectra", ["--override", "system.t2_h=1e-300"],
         f"system.t2_h: 1e-300 {_RANGE}"),
        ("robustness", ["--override", "oracle.matching=00;00;00",
                        "--override", "r.max=1"],
         "oracle.matching: matching set 00 given twice"),
        ("spectra", ["--override", "freq.span=1e308"], f"freq.span: 1e308 {_RANGE}"),
        ("spectra", ["--override", "freq.span=1e-320",
                     "--override", "freq.points=100001"],
         f"freq.span: 1e-320 {_RANGE}"),
        ("k1-curves", ["--override", "style=naive,naive,naive"],
         "style: entry 'naive' given twice"),
        ("spectra", ["--override", "r.values=1,01"],
         "r.values: entry '01' given twice"),
        ("robustness", ["--override", "error.eps=0.1,0.10",
                        "--override", "r.max=1"],
         "error.eps: entry '0.10' given twice"),
        # an existing file as output directory: writing the outputs fails
        ("table1", ["--out", "latin-1.cfg"], "output.dir: "),
        # "" would write into the working directory
        ("table1", ["--out", ""], "output.dir: empty path"),
        # 1 set x 10 orders x 100001 points: each key within its own cap,
        # the total over the trace-point cap; rejected before the run
        ("spectra", ["--override", "oracle.matching=00",
                     "--override", "r.values=0,1,2,3,4,5,6,7,8,inf",
                     "--override", "freq.points=100001"],
         "trace points: 1 matching sets x 10 r.values x 100001 freq.points"),
        # bb1-scaling runs one matching set; a second one would be ignored
        ("bb1-scaling", ["--override", "oracle.matching=11;00"],
         "oracle.matching: bb1-scaling takes one single-state set"),
        ("k1-curves", ["--override", "style=foo"], "style: unknown pulse style 'foo'"),
        ("bb1-scaling", ["--override", "oracle.matching=00+01"],
         "oracle.matching: matching set 00+01 has 2 states, expected 1"),
        ("k1-curves", ["--override", "error.eps=nan"], "error.eps: number must be finite: 'nan'"),
        ("k2-curves", ["--override", "oracle.matching=00+02"],
         "oracle.matching: bad basis string '02'"),
        ("k1-curves", ["--override", "oracle.matching=00;"],
         "oracle.matching: empty matching set in '00;'"),
        ("k1-curves", ["--override", "oracle.matching=00+00"],
         "oracle.matching: state 00 given twice in '00+00'"),
    ],
    ids=["j", "t2_h", "t90", "t2_c", "undecodable-file", "j-subnormal",
         "t2_h-tiny", "duplicate-matching", "freq-span-huge", "freq-span-subnormal",
         "duplicate-style", "duplicate-orders", "duplicate-eps", "out-is-a-file",
         "out-empty",
         "trace-points", "bb1-multiple-sets", "unknown-style", "bb1-two-state-set",
         "nan", "bad-state", "empty-set", "duplicate-state"],
)
def test_bad_config_input_exits_2(tmp_path, capsys, monkeypatch, experiment, args, reason):
    (tmp_path / "latin-1.cfg").write_bytes("style = na\xefve\n".encode("latin-1"))
    args = [str(tmp_path / a) if a.endswith(".cfg") else a for a in args]
    monkeypatch.chdir(tmp_path)
    code = main(["run", experiment, "--out", str(tmp_path / "out"), *args])
    assert code == 2
    assert f"config error: {reason}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["latin-1.cfg"]  # wrote nothing


def test_unitarity_violation_exits_3(tmp_path, monkeypatch, capsys):
    # no product is unitary to a tolerance of 0, so the first check raises
    monkeypatch.setattr(pulses, "SEQUENCE_ATOL", 0.0)
    code = main(["run", "k1-curves", "--out", str(tmp_path),
                 "--override", "oracle.matching=11", "--override", "r.max=0"])
    assert code == 3
    assert "numerical invariant violation: " in capsys.readouterr().err


@pytest.mark.parametrize("passed,code", [((True, True), 0), ((True, False), 1)])
def test_verify_reports_each_check(monkeypatch, capsys, passed, code):
    results = [CheckResult(f"check {i}", ok, f"detail {i}", 0.5 * i)
               for i, ok in enumerate(passed)]
    monkeypatch.setattr(cli, "run_all", lambda: results)
    assert main(["verify"]) == code
    out, err = capsys.readouterr()
    second = "PASS" if code == 0 else "FAIL"
    assert out.splitlines()[:2] == ["[PASS] check 0 (0.00s): detail 0",
                                    f"[{second}] check 1 (0.50s): detail 1"]
    if code:
        assert err == "1 of 2 checks failed\n"
    else:
        assert out.splitlines()[2:] == ["all 2 checks passed"] and err == ""


def test_module_entry_point_exits_with_mains_code(tmp_path):
    # python -m fpsearch.cli runs the CLI from a source checkout: the one imported here
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "fpsearch.cli", "run", "table1", "--override", "bogus=1"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: unknown keys for table1: bogus")


@pytest.mark.parametrize(
    "data,code,message",
    [("# caf\u00e9\n".encode("utf-8"), 0, ""),
     ("style = na\xefve\n".encode("latin-1"), 2, "'utf-8' codec can't decode")],
    ids=["utf-8", "latin-1"],
)
def test_config_is_read_as_utf8_under_an_ascii_locale(tmp_path, data, code, message):
    # the C locale without coercion or UTF-8 mode makes ASCII the default encoding
    (tmp_path / "run.cfg").write_bytes(data)
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C",
           "PYTHONCOERCECLOCALE": "0"}
    proc = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "fpsearch.cli", "run", "table1",
         "--config", "run.cfg", "--out", "out"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == code
    if code:
        assert proc.stderr.startswith(f"config error: {message}")
    else:
        assert proc.stderr == ""


def test_byte_identity_across_cli_runs(tmp_path):
    for sub in ("a", "b"):
        assert (
            main(
                [
                    "run",
                    "bb1-scaling",
                    "--out",
                    str(tmp_path / sub),
                    "--override",
                    "eps.points=4",
                ]
            )
            == 0
        )
    a = (tmp_path / "a" / "bb1_scaling.csv").read_bytes()
    b = (tmp_path / "b" / "bb1_scaling.csv").read_bytes()
    assert a == b


# Override values per key: mostly valid, with the range ends and values
# just beyond them, kept small (r <= 3, lists of at most 3 entries,
# freq.points <= 2001) so that every accepted draw runs in a fraction of a
# second. Malformed text comes from _GARBAGE.
def _list(entries):
    return st.lists(entries, min_size=1, max_size=3).map(",".join)


_ORDER = st.sampled_from(["0", "1", "2", "3"])
_ERROR = st.sampled_from(["0", "0.05", "-0.1", "0.2", "-0.99", "1e-300", "1"])
_MAGNITUDE = st.sampled_from(["194.8", "1e-9", "1e9", "0.9e-9", "1e-320", "1e308"])
_EPS_END = st.sampled_from(["1e-3", "2e-3", "0.05", "0.1", "0.5"])
_MATCHING = st.sampled_from(["all", "00", "11;01", "00+01", "01+10;00+11", "00+10",
                             "00+01+10", "00;00"])
OVERRIDE_VALUES = {
    "r.max": _ORDER,
    "r.values": _list(st.one_of(_ORDER, st.just("inf"))),
    "style": _list(st.sampled_from(["naive", "bb1"])),
    "error.eps": _list(_ERROR),
    "error.delta_j": _list(_ERROR),
    "oracle.matching": _MATCHING,
    "oracle.k": st.sampled_from(["1", "2", "3"]),
    "system.j": _MAGNITUDE,
    "system.t90": _MAGNITUDE,
    "system.t2_h": _MAGNITUDE,
    "system.t2_c": _MAGNITUDE,
    "eps.min": _EPS_END,
    "eps.max": _EPS_END,
    "eps.points": st.sampled_from(["2", "3", "5"]),
    "freq.span": st.sampled_from(["150", "1e-9", "1e9", "1e-320", "1e308"]),
    "freq.points": st.integers(1, 2001).map(str),
}
_GARBAGE = st.text(max_size=6)


def _overrides(experiment):
    """Up to three overrides of the experiment's own keys, drawn from
    ``OVERRIDE_VALUES``, and at most one malformed item: a known key with
    garbage, a key of another experiment, or text that may lack ``=``."""
    keys = sorted(set(default_mapping(experiment)) - {"output.dir"})
    known = st.sampled_from(keys)
    bad = st.one_of(
        known.flatmap(lambda k: _GARBAGE.map(lambda v: f"{k}={v}")),
        st.sampled_from(sorted(OVERRIDE_VALUES)).map(lambda k: f"{k}=1"),
        _GARBAGE,
    )
    good = known.flatmap(lambda k: OVERRIDE_VALUES[k].map(lambda v: f"{k}={v}"))
    return st.tuples(
        st.lists(good, max_size=3), st.lists(bad, max_size=1)
    ).map(lambda pair: pair[0] + pair[1])


_RUNS = st.sampled_from(EXPERIMENT_NAMES).flatmap(
    lambda e: st.tuples(st.just(e), _overrides(e))
)


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=_RUNS)
def test_random_overrides_exit_0_or_2(tmp_path, run):
    experiment, overrides = run
    argv = ["run", experiment, "--out", str(tmp_path / "out")]
    argv += [f"--override={item}" for item in overrides]
    assert main(argv) in (0, 2)


# Each usage error exits 2 through SystemExit, as argparse did, with the
# usage block and a one-line reason on stderr.
@pytest.mark.parametrize(
    "argv,reason",
    [
        ([], "no command given"),
        (["bogus"], "unknown command 'bogus'"),
        (["run", "nope"], "run takes one experiment of table1, k1-curves, k2-curves, "
                          "robustness, bb1-scaling, spectra, got nope"),
        (["run"], "got none"),
        (["run", "--out", "o"], "got none"),
        (["run", "table1", "k1-curves"], "got table1 k1-curves"),
        (["run", "table1", "--bogus"], "unrecognized option --bogus"),
        (["run", "table1", "--over", "r.max=1"], "unrecognized option --over"),
        (["run", "table1", "--", "x"], "unrecognized option --"),
        (["run", "table1", "--out"], "option --out expects a value"),
        (["run", "table1", "--override", "--out", "o"],
         "option --override expects a value"),
        (["list", "x"], "list takes no arguments, got x"),
        (["verify", "x"], "verify takes no arguments, got x"),
    ],
    ids=["no-command", "unknown-command", "unknown-experiment", "no-experiment",
         "only-options", "two-experiments", "unknown-option", "abbreviation",
         "double-dash", "no-value", "option-as-value", "list-argument",
         "verify-argument"],
)
def test_usage_error_exits_2(monkeypatch, capsys, argv, reason):
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail("ran"))
    monkeypatch.setattr(cli, "run_all", lambda: pytest.fail("verified"))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith(f"{cli.USAGE}\nfpsearch: error: ")
    assert err.count("\n") == cli.USAGE.count("\n") + 2 and reason in err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["run", "table1", "-h"],
                                  ["list", "--help"]])
def test_help_prints_the_usage_block(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == cli.USAGE + "\n" and err == ""
    assert out.startswith("usage: fpsearch run EXPERIMENT [--config FILE] [--out DIR] ")
    assert cli.USAGE in cli.__doc__


@pytest.mark.parametrize(
    "options,r_max",
    [(["--out=o"], 4),
     (["--out", "o", "--override", "r.max=1"], 1),
     (["--out", "p", "--out=o", "--override=r.max=1", "--override", "r.max=0"], 0),
     (["--config=a.cfg", "--out=o"], 2),
     (["--config", "b.cfg", "--config", "a.cfg", "--out", "o"], 2),
     (["--config", "b.cfg", "--override", "r.max=1", "--out=o"], 1)],
    ids=["equals", "override", "last-out-wins", "config-equals", "last-config-wins",
         "override-beats-config"],
)
@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_options_parse_before_or_after_the_experiment(tmp_path, monkeypatch, capsys,
                                                      options, r_max, before):
    (tmp_path / "a.cfg").write_text("r.max = 2\n")
    (tmp_path / "b.cfg").write_text("r.max = 3\n")
    monkeypatch.chdir(tmp_path)
    seen = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg) or ["x.csv"])
    argv = [*options, "table1"] if before else ["table1", *options]
    assert main(["run", *argv]) == 0
    assert capsys.readouterr().out == "x.csv\n"
    (cfg,) = seen
    assert (cfg.out_dir, cfg.r_max) == ("o", r_max)


# Random argv lists from tokens of the grammar and garbage (without NUL, which
# no command-line argument can hold). ``run`` and ``verify`` are stubbed, so
# only ``list`` does its own work.
_TOKENS = st.one_of(
    st.sampled_from(["run", "list", "verify", "table1", "spectra", "--config", "--out",
                     "--override", "--out=o", "--override=r.max=1", "r.max=1", "-h",
                     "--help", "--", "-", "="]),
    st.text(st.characters(blacklist_characters="\0"), max_size=4),
)


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.tuples(st.sampled_from(["run", "list", "verify", ""]),
                     st.lists(_TOKENS, max_size=5))
       .map(lambda t: [t[0], *t[1]] if t[0] else t[1]))
def test_random_argv_exits_0_or_2(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: [])
    monkeypatch.setattr(cli, "run_all", lambda: [])
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2)
