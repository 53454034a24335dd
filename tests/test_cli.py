import importlib.util
import json
import math

import numpy as np
import pytest

import subdiff.cli as cli
import subdiff.study as study
from subdiff.benchmarks import PRESETS
from subdiff.cli import build_config, main, make_parser
from subdiff.config import ConfigError, ExperimentConfig
from subdiff.mittag_leffler import MlfEvaluator


def steps_name(M, N, modes, fine_M, example="example1", alpha=0.75, gamma=1.6, T=0.5,
               tol=1e-12):
    """The per-step error file of one run, named by every field its curve depends on."""
    return (f"steps_{example}_M{M}_N{N}_alpha{alpha}_gamma{gamma}_T{T}_modes{modes}"
            f"_fineM{fine_M}_tol{tol}.csv")


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
    dict(M=[4, 4]), dict(mu=[]), dict(mu=[1100.0]), dict(T=2.0, mu=[0.0, 1100.0]),
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
    ('"mu": [0.5, 0.5000000000000001]', "mu"),  # two columns named E_0.5
    ('"mu": [-0.0]', "mu"),         # would name its column E_-0
    ('"tol": 1e-300', "tol"),       # below the machine epsilon: CG would stall after its work
    ('"T": 1' + "0" * 400, "T"),    # an integer past float range
    ('"mu": [1' + "0" * 400 + "]", "mu"),
    # range rules of the mesh and the weights, named by the configuration's field
    ('"fine_M": 1', "fine_M"),
    ('"M": [1]', "M"),
    ('"alpha": 1', "alpha"),
], ids=["alpha_string", "M_scalar", "mu_nan", "T_inf", "N_bool", "example_list",
        "mu_repeated", "M_several_for_solve", "mu_same_column", "mu_negative_zero",
        "tol_below_epsilon", "T_huge_integer", "mu_huge_integer", "fine_M_one", "M_one",
        "alpha_one"])
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


def test_repeated_M_figure_exit_code(tmp_path, capsys):
    # one error-curve file per M: a repeated M would solve twice for one file
    code = main(["table", "custom", "--M", "4,4", "--N", "20", "--modes", "4",
                 "--fine-M", "16", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == ("error: invalid configuration: "
                                       "M values must be distinct, got [4, 4]\n")
    assert not any(tmp_path.iterdir())


def test_zero_datum_solve(tmp_path, capsys):
    code = main(["solve", "--example", "zero", "--M", "4", "--N", "10",
                 "--modes", "8", "--fine-M", "16", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "E_0 = 0.00000e+00" in out
    steps = tmp_path / steps_name(4, 10, 8, 16, example="zero")
    assert steps.exists()
    for line in steps.read_text().strip().splitlines()[1:]:
        assert line.endswith(",0.0")


def test_zero_datum_study_has_no_rates(tmp_path, capsys, monkeypatch):
    # a zero datum's errors are 0 before any solve: the study stops at once
    def no_solve(*args, **kwargs):
        raise AssertionError("a zero-datum study must not solve")

    monkeypatch.setattr(cli, "run_single", no_solve)
    monkeypatch.setattr(study, "run_single", no_solve)
    code = main(["table", "custom", "--example", "zero", "--M", "2,4", "--N", "10",
                 "--modes", "4", "--fine-M", "8", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("error: invalid configuration: example 'zero' is the zero datum: "
                   "its error is 0 at every step, so a study of it has no "
                   "convergence rates or error curves\n")
    assert not any(tmp_path.iterdir())


def test_unrepresentable_final_time_weight_solve_exit_code(tmp_path, capsys, recwarn):
    # 2 ** 1100 overflows a double: E_1100 used to print inf after a RuntimeWarning
    code = main(["solve", "--M", "4", "--N", "5", "--modes", "4", "--fine-M", "8",
                 "--T", "2", "--mu", "0,1100", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: invalid configuration: mu=1100.0 with T=2.0: the final-time weight T**mu "
        "is not a normal finite number; lower mu\n")
    assert not any(tmp_path.iterdir())
    assert len(recwarn) == 0


@pytest.mark.parametrize("T", [0.5, 2.0])
def test_unrepresentable_final_time_weight_table_exit_code(T, tmp_path, capsys, monkeypatch):
    # 0.5 ** 1100 underflows to 0, so the table used to fail on its rates after every row
    def no_solve(*args, **kwargs):
        raise AssertionError("a weight T**mu out of range must stop the study before a solve")

    monkeypatch.setattr(cli, "run_single", no_solve)
    monkeypatch.setattr(study, "run_single", no_solve)
    code = main(["table", "custom", "--M", "4,8", "--N", "5", "--modes", "4", "--fine-M", "8",
                 "--T", str(T), "--mu", "0,1100", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"error: invalid configuration: mu=1100.0 with T={T}: ")
    assert not any(tmp_path.iterdir())


def test_degenerate_time_mesh_exit_code(tmp_path, capsys, recwarn):
    code = main(["solve", "--gamma", "1e6", "--M", "4", "--N", "10",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration: time mesh with N=10 and gamma=")
    assert "not positive" in err
    assert len(recwarn) == 0


@pytest.mark.parametrize("flag, value, named", [("--gamma", "1e6", "gamma=1000000.0"),
                                                ("--T", "5e-324", "T=5e-324")])
def test_degenerate_time_mesh_makes_no_output(flag, value, named, tmp_path, capsys):
    # the time mesh is checked with the configuration, before --out is made
    out = tmp_path / "new"
    assert main(["solve", "--M", "4", "--N", "10", flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert named in err and "not positive" in err
    assert not out.exists()


def test_alpha_near_one_solves(tmp_path, capsys, recwarn):
    code = main(["solve", "--M", "4", "--N", "10", "--modes", "4", "--fine-M", "8",
                 "--alpha", "0.999999999", "--out", str(tmp_path)])
    assert code == 0
    e0 = float(capsys.readouterr().out.split("E_0 = ")[1].split()[0])
    assert math.isfinite(e0)
    assert len(recwarn) == 0


def test_non_finite_decay_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(MlfEvaluator, "__call__", lambda self, x: np.full(np.shape(x), np.nan))
    code = main(["solve", "--M", "4", "--N", "10", "--modes", "4", "--fine-M", "8",
                 "--alpha", "0.6", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("error: invalid configuration: Mittag-Leffler decay "
                   "E_alpha(-lambda t^alpha) is not finite for alpha=0.6\n")
    assert not any(tmp_path.iterdir())


def test_non_finite_later_decay_block_exit_code(tmp_path, capsys, monkeypatch):
    # the decay of steps 33-40 is evaluated at step 33; a non-finite value
    # there still ends the run with exit 2, and no file is written
    real = MlfEvaluator.__call__
    calls = []

    def nan_after_first_call(self, x):
        calls.append(np.size(x))
        return real(self, x) if len(calls) == 1 else np.full(np.shape(x), np.nan)

    monkeypatch.setattr(MlfEvaluator, "__call__", nan_after_first_call)
    code = main(["solve", "--M", "4", "--N", "40", "--modes", "4", "--fine-M", "8",
                 "--alpha", "0.6", "--out", str(tmp_path)])
    assert code == 2
    assert len(calls) == 2
    err = capsys.readouterr().err
    assert err == ("error: invalid configuration: Mittag-Leffler decay "
                   "E_alpha(-lambda t^alpha) is not finite for alpha=0.6\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", [["solve", "--M", "4"], ["table", "custom", "--M", "2,4"]],
                         ids=["solve", "table"])
def test_output_under_a_regular_file_exit_code(command, tmp_path, capsys, monkeypatch):
    # the output directory is checked before the run, not after it
    def no_run(*args, **kwargs):
        raise AssertionError("an unusable --out must stop the command before the run")

    monkeypatch.setattr(cli, "run_single", no_run)
    monkeypatch.setattr(cli, "run_table", no_run)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    code = main(command + ["--N", "5", "--modes", "4", "--fine-M", "8", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid configuration: cannot write output to {out}: ")


@pytest.mark.parametrize("blocked", [steps_name(4, 5, 4, 8), "table_custom.csv"],
                         ids=["steps", "summary"])
def test_write_failure_after_the_run_exit_code(blocked, tmp_path, capsys):
    # a directory where an output file goes is found only when the run is
    # done and its files are written; it is reported like an unusable --out
    path = tmp_path / blocked
    path.mkdir()
    code = main(["table", "custom", "--M", "4,8", "--N", "5", "--modes", "4", "--fine-M", "8",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid configuration: cannot write output to {path}: ")


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000) "
                 "and data type float64"),
     "Unable to allocate 74.5 GiB for an array with shape (100000, 100000) "
     "and data type float64"),
    (MemoryError(), "out of memory")], ids=["numpy", "bare"])
def test_out_of_memory_exit_code(exc, message, tmp_path, capsys, monkeypatch):
    # raised, never allocated: a host with memory overcommit could start a real one
    def too_large(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "run_single", too_large)
    code = main(["solve", "--M", "4", "--N", "10", "--modes", "100000", "--fine-M", "16",
                 "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: invalid configuration: {message}\n"


def test_preset_choices_are_the_presets():
    commands = next(a for a in make_parser()._actions if a.dest == "command").choices
    assert set(commands) == {"solve", "table"}
    table = next(a for a in commands["table"]._actions if a.dest == "preset").choices
    assert table == ["table1", "table2", "table3", "custom"]
    assert set(PRESETS) == {"table1", "table2", "table3"}


def test_example_help_names_the_data():
    commands = next(a for a in make_parser()._actions if a.dest == "command").choices
    for command in commands.values():
        example = next(a for a in command._actions if a.dest == "example")
        assert example.help == "example1 | example2 | example3 | zero"


def test_residual_overflow_exit_code(tmp_path, capsys):
    # ||r||^2 overflows at T = 1e300; pytest turns a RuntimeWarning into an error
    code = main(["solve", "--M", "4", "--N", "20", "--modes", "4", "--fine-M", "16",
                 "--T", "1e300", "--out", str(tmp_path)])
    assert code == 1
    assert "residual norm is not finite" in capsys.readouterr().err


def test_large_final_time_solves(tmp_path, capsys):
    # CG restarts after a residual replacement; without it T = 1e30 ends in
    # "CG did not converge" after 1,090 iterations
    code = main(["solve", "--M", "4", "--N", "20", "--modes", "4", "--fine-M", "16",
                 "--T", "1e30", "--out", str(tmp_path)])
    assert code == 0
    e0 = float(capsys.readouterr().out.split("E_0 = ")[1].split()[0])
    assert math.isfinite(e0)


def test_solve_deterministic_output(tmp_path):
    args = ["solve", "--example", "example1", "--M", "4", "--N", "15",
            "--modes", "12", "--fine-M", "16"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    f1 = out1 / steps_name(4, 15, 12, 16)
    f2 = out2 / steps_name(4, 15, 12, 16)
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
    assert (tmp_path / "cli_wins" / steps_name(4, 8, 10, 16)).exists()


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


def test_fine_M_any_multiple_of_M(tmp_path, capsys):
    # the lattice needs fine_M / M to be an integer, not a power of two
    code = main(["solve", "--M", "4", "--fine-M", "12", "--N", "10", "--modes", "8",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / steps_name(4, 10, 8, 12)).exists()


def test_table_requires_doubling(tmp_path):
    code = main(["table", "custom", "--example", "example1", "--M", "4,12",
                 "--N", "5", "--modes", "8", "--fine-M", "48",
                 "--out", str(tmp_path)])
    assert code == 2


def test_figure_outputs(tmp_path, capsys):
    # table writes each row's error curve under solve's name, and the figure's script
    code = main(["table", "custom", "--M", "4,8", "--N", "10",
                 "--modes", "8", "--fine-M", "16", "--out", str(tmp_path)])
    assert code == 0
    m4 = "steps_example1_M4_N10_alpha0.75_gamma1.6_T0.5_modes8_fineM16_tol1e-12.csv"
    m8 = "steps_example1_M8_N10_alpha0.75_gamma1.6_T0.5_modes8_fineM16_tol1e-12.csv"
    assert sorted(p.name for p in tmp_path.iterdir()) == [m4, m8, "table_custom.csv",
                                                          "table_custom.gp"]
    gp = (tmp_path / "table_custom.gp").read_text()
    assert gp == ("set logscale xy\n"
                  "set xlabel 't'\n"
                  "set ylabel 'max-norm error on the fine lattice'\n"
                  "set key left bottom\n"
                  f"plot '{m4}' using 2:3 with lines title 'M=4', \\\n"
                  f"     '{m8}' using 2:3 with lines title 'M=8'\n")
    lines = (tmp_path / m4).read_text().strip().splitlines()
    assert len(lines) == 11  # header + one row per step


def test_figure_error_curves_ordered(tmp_path):
    assert main(["table", "custom", "--M", "4,8", "--N", "10", "--modes", "12",
                 "--fine-M", "16", "--out", str(tmp_path)]) == 0
    e4, e8 = (np.loadtxt(tmp_path / steps_name(M, 10, 12, 16), delimiter=",",
                         skiprows=1)[:, 2] for M in (4, 8))
    assert np.mean(e8 < e4) > 0.9  # finer mesh sits below at almost every t


def test_table_curves_are_the_solve_curves(tmp_path):
    # one writer and one name: a table row's curve is the solve run's file, byte for byte
    flags = ["--example", "example2", "--N", "12", "--modes", "8", "--fine-M", "16"]
    assert main(["table", "custom", "--M", "4,8", *flags, "--out", str(tmp_path / "t")]) == 0
    assert main(["table", "custom", "--M", "4,8", *flags, "--out", str(tmp_path / "u")]) == 0
    for M in (4, 8):
        assert main(["solve", "--M", str(M), *flags, "--out", str(tmp_path / "s")]) == 0
        name = steps_name(M, 12, 8, 16, example="example2")
        assert (tmp_path / "t" / name).read_bytes() == (tmp_path / "s" / name).read_bytes()
    names = sorted(p.name for p in (tmp_path / "t").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "u").iterdir())
    for name in names:
        assert (tmp_path / "t" / name).read_bytes() == (tmp_path / "u" / name).read_bytes()


def test_curves_of_different_runs_keep_their_files(tmp_path, capsys):
    # a solve that differs from a table row only in alpha writes its own
    # curve, so the table's script still plots the table's curves
    flags = ["--example", "example2", "--N", "12", "--modes", "8", "--fine-M", "16",
             "--out", str(tmp_path)]
    assert main(["table", "custom", "--M", "4,8", *flags]) == 0
    table_files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(["solve", "--M", "4", "--alpha", "0.4", *flags]) == 0
    for name, data in table_files.items():
        assert (tmp_path / name).read_bytes() == data
    solve_name = steps_name(4, 12, 8, 16, example="example2", alpha=0.4)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*table_files, solve_name])
    assert capsys.readouterr().out.endswith(f"wrote {tmp_path / solve_name}\n")


@pytest.mark.parametrize("field, value", [("alpha", "0.5"), ("gamma", "2"), ("T", "1"),
                                          ("N", "11"), ("modes", "9"), ("fine-M", "32"),
                                          ("tol", "1e-11"), ("M", "8")])
def test_curve_file_names_differ_by_every_field(field, value, tmp_path):
    # every resolved field a curve depends on changes its file name, and
    # mu and the output directory do not
    def name(flags):
        cfg = build_config(make_parser().parse_args(["solve", *flags]))
        return cli._steps_path(tmp_path, cfg, cfg.M[0]).name

    base = ["--M", "4", "--N", "10", "--modes", "8", "--fine-M", "16"]
    assert name(base + [f"--{field}", value]) != name(base)
    assert name(base + ["--mu", "0.5", "--out", "elsewhere"]) == name(base)


def test_figure_command_removed(capsys):
    # table writes the error curves and their script; figure1-figure3 are gone
    with pytest.raises(SystemExit) as info:
        main(["figure", "figure1"])
    assert info.value.code == 2
    assert "invalid choice: 'figure'" in capsys.readouterr().err


def test_verify_command_removed(capsys):
    # the test suite is the verification: no built-in suites remain
    with pytest.raises(SystemExit) as info:
        main(["verify"])
    assert info.value.code == 2
    assert "invalid choice: 'verify'" in capsys.readouterr().err
    assert importlib.util.find_spec("subdiff.verify") is None
