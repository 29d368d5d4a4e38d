import numpy as np
import pytest

from fpsearch.cli import main


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


@pytest.mark.parametrize(
    "experiment,args",
    [
        ("k1-curves", ["--override", "system.j=-1"]),
        ("k1-curves", ["--override", "system.t2_h=0"]),
        ("k1-curves", ["--override", "system.t90=0"]),
        ("k1-curves", ["--override", "system.t2_c=0"]),
        ("k1-curves", ["--config", "latin-1.cfg"]),
        ("k1-curves", ["--override", "system.j=1e-320"]),
        ("spectra", ["--override", "system.t2_h=1e-300"]),
        ("robustness", ["--override", "oracle.matching=00;00;00",
                        "--override", "r.max=1"]),
        ("spectra", ["--override", "freq.span=1e308"]),
        ("spectra", ["--override", "freq.span=1e-320",
                     "--override", "freq.points=100001"]),
    ],
    ids=["j", "t2_h", "t90", "t2_c", "undecodable-file", "j-subnormal",
         "t2_h-tiny", "duplicate-matching", "freq-span-huge", "freq-span-subnormal"],
)
def test_bad_config_input_exits_2(tmp_path, capsys, experiment, args):
    (tmp_path / "latin-1.cfg").write_bytes("style = na\xefve\n".encode("latin-1"))
    args = [str(tmp_path / a) if a.endswith(".cfg") else a for a in args]
    code = main(["run", experiment, "--out", str(tmp_path / "out"), *args])
    assert code == 2
    assert "config error" in capsys.readouterr().err


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
