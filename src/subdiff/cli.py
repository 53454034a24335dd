"""Command-line interface: solve and table.

`solve` writes one run's per-step error CSV; `table` writes an M sweep's
summary CSV, each row's per-step error CSV and a gnuplot script of those.

Configuration starts from the defaults; a preset, an optional JSON file
and flags of the same names each override what came before. Exit codes:
0 success, 1 numerical failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

from .benchmarks import PRESETS
from .config import ConfigError, ExperimentConfig
from .exact import DATA
from .exceptions import SolverFailureError
from .study import run_single, run_table

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2


def _int_list(text: str) -> list:
    return [int(s) for s in text.split(",") if s]


def _float_list(text: str) -> list:
    return [float(s) for s in text.split(",") if s]


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="JSON config file")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--example", type=str, default=None,
                   help=" | ".join(DATA))
    p.add_argument("--M", type=_int_list, default=None,
                   help="mesh subdivisions; comma-separated list for studies")
    p.add_argument("--N", type=int, default=None, help="time subintervals")
    p.add_argument("--gamma", type=float, default=None, help="time-mesh grading")
    p.add_argument("--T", type=float, default=None, help="final time")
    p.add_argument("--modes", type=int, default=None, help="series truncation per axis")
    p.add_argument("--mu", type=_float_list, default=None,
                   help="comma-separated weight exponents")
    p.add_argument("--fine-M", dest="fine_M", type=int, default=None,
                   help="fine evaluation lattice subdivisions")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--tol", type=float, default=None, help="linear solver tolerance")


def build_config(args, preset: str | None = None) -> ExperimentConfig:
    """Defaults, then the preset, then the fields the config file names, then flags."""
    cfg = ExperimentConfig()
    if preset is not None:
        cfg = cfg.replace(**PRESETS[preset])
    if args.config:
        try:
            cfg_text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc.strerror}") from exc
        cfg = ExperimentConfig.from_json(cfg_text, base=cfg)
    flags = {f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)}
    cfg = cfg.replace(**{name: val for name, val in flags.items() if val is not None})
    cfg.validate()
    return cfg


@contextmanager
def _writing_outputs(outdir: Path):
    """Report a failure to create outdir or write a file in it as a
    ConfigError naming the path."""
    try:
        yield
    except OSError as exc:
        path = exc.filename or outdir
        raise ConfigError(f"cannot write output to {path}: {exc.strerror}") from exc


def _output_dir(cfg: ExperimentConfig) -> Path:
    """Create cfg.out before the run, so that an unusable path is reported
    before any work is done."""
    outdir = Path(cfg.out)
    with _writing_outputs(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _steps_path(outdir: Path, cfg: ExperimentConfig, M: int) -> Path:
    """Where solve and table write the per-step errors of the run at M: the
    name spells out every field the curve depends on (all but mu and out),
    so one run has one name and two different runs never share one."""
    return outdir / (f"steps_{cfg.example}_M{M}_N{cfg.N}_alpha{float(cfg.alpha)!r}"
                     f"_gamma{float(cfg.gamma)!r}_T{float(cfg.T)!r}_modes{cfg.modes}"
                     f"_fineM{cfg.fine_M}_tol{float(cfg.tol)!r}.csv")


def cmd_solve(args) -> int:
    cfg = build_config(args)
    if len(cfg.M) != 1:
        raise ConfigError(f"M must name one mesh size for solve, got {cfg.M}")
    M = cfg.M[0]
    outdir = _output_dir(cfg)
    res = run_single(cfg, M)
    steps = _steps_path(outdir, cfg, M)
    with _writing_outputs(outdir):
        res.write_steps_csv(steps)
    summary = ", ".join(f"E_{mu:g} = {val:.5e}" for mu, val in res.E_mu.items())
    print(f"{cfg.example} M={M} N={cfg.N} gamma={cfg.gamma} alpha={cfg.alpha}: {summary}")
    print(f"wrote {steps}")
    return EXIT_OK


def cmd_table(args) -> int:
    preset = args.preset if args.preset != "custom" else None
    cfg = build_config(args, preset=preset)
    if cfg.example == "zero":
        raise ConfigError("example 'zero' is the zero datum: its error is 0 at every step, "
                          "so a study of it has no convergence rates or error curves")
    for a, b in zip(cfg.M, cfg.M[1:]):
        if b != 2 * a:
            raise ConfigError(f"M must double between table rows, got {cfg.M}")
    outdir = _output_dir(cfg)
    result = run_table(cfg)
    name = args.preset if args.preset != "custom" else "table_custom"
    csv_path = outdir / f"{name}.csv"
    steps = [_steps_path(outdir, cfg, M) for M in result.Ms]
    gp = outdir / f"{name}.gp"
    lines = [
        "set logscale xy",
        "set xlabel 't'",
        "set ylabel 'max-norm error on the fine lattice'",
        "set key left bottom",
        "plot " + ", \\\n     ".join(
            f"'{path.name}' using 2:3 with lines title 'M={M}'"
            for path, M in zip(steps, result.Ms)),
    ]
    with _writing_outputs(outdir):
        csv_path.write_text(result.csv_text())
        for path, run in zip(steps, result.runs):
            run.write_steps_csv(path)
        gp.write_text("\n".join(lines) + "\n")
    print(result.text())
    print(f"wrote {csv_path}, {len(steps)} error-curve files and {gp}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="subdiff",
        description="Finite-element solver for the time-fractional diffusion "
                    "equation on the unit square, with convergence studies "
                    "against the exact eigenfunction-series solution.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="single run; per-step error CSV and E_mu summary")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("table", help="convergence table over an M sweep, "
                                     "with each row's per-step error CSV and a gnuplot script")
    p.add_argument("preset", choices=[*PRESETS, "custom"])
    _add_config_flags(p)
    p.set_defaults(fn=cmd_table)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, MemoryError) as exc:
        # a MemoryError is a run too large for this host; numpy names the refused allocation
        print(f"error: invalid configuration: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverFailureError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
