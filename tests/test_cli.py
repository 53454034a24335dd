import json

import pytest

from subdiff.cli import build_config, main, make_parser
from subdiff.config import ConfigError, ExperimentConfig


def test_config_roundtrip():
    cfg = ExperimentConfig(alpha=0.6, example="example2", M=[4, 8], N=77,
                           gamma=1.3, T=0.25, modes=20, mu=[0.0, 0.5],
                           fine_M=32, out="elsewhere", tol=1e-11)
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg


def test_config_rejects_unknown_fields():
    # unknown names, and JSON values that are not objects
    for text in (json.dumps({"alhpa": 0.5}), json.dumps({"seed": 0}), "[1]", "5"):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(text)


@pytest.mark.parametrize("overrides", [
    dict(alpha=1.5), dict(alpha=0.0), dict(example="example9"),
    dict(M=[1]), dict(N=0), dict(gamma=0.5), dict(T=0.0),
    dict(modes=0), dict(mu=[-1.0]), dict(fine_M=100, M=[8]),
])
def test_config_validation(overrides):
    cfg = ExperimentConfig().replace(**overrides)
    with pytest.raises(ConfigError):
        cfg.validate()


@pytest.mark.parametrize("bad, field", [
    ('"alpha": "0.75"', "alpha"),   # a string, not a number
    ('"M": 8', "M"),                # a bare integer, not a list
    ('"mu": [NaN]', "mu"),          # non-finite weight exponent
    ('"T": 1e400', "T"),            # overflows to inf
    ('"N": true', "N"),             # bool is not an integer here
    ('"example": ["x"]', "example"),  # a list, not a tag
    ('"mu": [0, 0, 0.5]', "mu"),    # one table column per mu: no repeats
    ('"M": [4, 8]', "M"),           # solve runs one mesh size (the later "M" key wins)
], ids=["alpha_string", "M_scalar", "mu_nan", "T_inf", "N_bool", "example_list",
        "mu_repeated", "M_several_for_solve"])
def test_config_file_bad_value_exit_code(bad, field, capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"M": [4], "N": 5, "modes": 4, "fine_M": 16, '
                        f'"out": "{tmp_path / "out"}", {bad}}}')
    assert main(["solve", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration: " + field)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_config_exit_code(kind, capsys, tmp_path):
    path = tmp_path / "absent.json" if kind == "missing" else tmp_path
    assert main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration: cannot read config file ")
    assert str(path) in err


def test_invalid_alpha_exit_code(capsys, tmp_path):
    code = main(["solve", "--alpha", "1.5", "--M", "4", "--N", "5",
                 "--fine-M", "16", "--out", str(tmp_path)])
    assert code == 2
    assert "alpha" in capsys.readouterr().err


def test_zero_datum_solve(tmp_path, capsys):
    code = main(["solve", "--example", "zero", "--M", "4", "--N", "10",
                 "--modes", "8", "--fine-M", "16", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "E_0 = 0.00000e+00" in out
    steps = tmp_path / "steps_zero_M4_N10.csv"
    assert steps.exists()
    for line in steps.read_text().strip().splitlines()[1:]:
        assert line.endswith(",0.0")


@pytest.mark.parametrize("command", [["table", "custom"], ["figure", "figure1"]])
def test_zero_datum_study_has_no_rates(command, tmp_path, capsys):
    code = main(command + ["--example", "zero", "--M", "2,4", "--N", "10",
                           "--modes", "4", "--fine-M", "8", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("error: invalid configuration: "
                   "convergence rate undefined for non-positive errors\n")


def test_degenerate_time_mesh_exit_code(tmp_path, capsys, recwarn):
    code = main(["solve", "--gamma", "1e6", "--M", "4", "--N", "10",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration: time mesh with N=10 and gamma=")
    assert "not positive" in err
    assert len(recwarn) == 0


def test_solve_deterministic_output(tmp_path):
    args = ["solve", "--example", "example1", "--M", "4", "--N", "15",
            "--modes", "12", "--fine-M", "16"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    f1 = out1 / "steps_example1_M4_N15.csv"
    f2 = out2 / "steps_example1_M4_N15.csv"
    assert f1.read_bytes() == f2.read_bytes()


def test_config_file_overrides_preset(tmp_path):
    # a file value equal to the dataclass default still beats the preset
    cfg_path = tmp_path / "f.json"
    cfg_path.write_text(json.dumps({"N": 1000, "modes": 20}))
    args = make_parser().parse_args(["table", "table2", "--config", str(cfg_path),
                                     "--modes", "30"])
    cfg = build_config(args, preset="table2")
    assert cfg.N == 1000 and cfg.modes == 30
    assert cfg.example == "example2" and cfg.mu == [0.0, 0.25, 0.5, 0.75]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg = ExperimentConfig(example="example1", M=[4], N=12, modes=10, fine_M=16,
                           out=str(tmp_path / "from_file"))
    cfg_path.write_text(cfg.to_json())
    code = main(["solve", "--config", str(cfg_path), "--N", "8",
                 "--out", str(tmp_path / "cli_wins")])
    assert code == 0
    assert (tmp_path / "cli_wins" / "steps_example1_M4_N8.csv").exists()


def test_table_custom_small(tmp_path, capsys):
    code = main(["table", "custom", "--example", "example1", "--M", "4,8",
                 "--N", "12", "--modes", "10", "--mu", "0,0.5",
                 "--fine-M", "16", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "E_0" in out and "E_0.5" in out
    csv = (tmp_path / "table_custom.csv").read_text().strip().splitlines()
    assert csv[0] == "M,E_0,CR_0,E_0.5,CR_0.5"
    assert len(csv) == 3


def test_table_requires_doubling(tmp_path):
    code = main(["table", "custom", "--example", "example1", "--M", "4,12",
                 "--N", "5", "--modes", "8", "--fine-M", "48",
                 "--out", str(tmp_path)])
    assert code == 2


def test_figure_outputs(tmp_path, capsys):
    code = main(["figure", "figure1", "--M", "4,8", "--N", "10",
                 "--modes", "8", "--fine-M", "16", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "figure1_M4.csv").exists()
    assert (tmp_path / "figure1_M8.csv").exists()
    gp = (tmp_path / "figure1.gp").read_text()
    assert "logscale" in gp and "figure1_M4.csv" in gp
    lines = (tmp_path / "figure1_M4.csv").read_text().strip().splitlines()
    assert len(lines) == 11  # header + one row per step


def test_figure_error_curves_ordered(tmp_path):
    main(["figure", "figure1", "--M", "4,8", "--N", "10", "--modes", "12",
          "--fine-M", "16", "--out", str(tmp_path)])
    import numpy as np
    e4 = np.array([float(l.split(",")[2]) for l in
                   (tmp_path / "figure1_M4.csv").read_text().strip().splitlines()[1:]])
    e8 = np.array([float(l.split(",")[2]) for l in
                   (tmp_path / "figure1_M8.csv").read_text().strip().splitlines()[1:]])
    assert np.mean(e8 < e4) > 0.9  # finer mesh sits below at almost every t


def test_verify_command(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 5


def test_verify_fault_injection(capsys, monkeypatch):
    # a series-safe bound of 1e6 moves the alpha = 1/4 switch point to 5,
    # where the series has lost all its digits: verify must fail
    import subdiff.mittag_leffler as mittag_leffler
    monkeypatch.setattr(mittag_leffler, "_SERIES_T_MAX", 1e6)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] suite special_functions" in out


def test_verify_rejects_removed_cutoff_flags(capsys):
    for flag in ("--mlf-x-lo", "--mlf-x-hi"):
        with pytest.raises(SystemExit) as info:
            main(["verify", flag, "1"])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
