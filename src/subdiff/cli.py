"""Command-line interface: solve, table, figure, verify.

Configuration starts from the defaults; a preset, an optional JSON file
and flags of the same names each override what came before. Exit codes:
0 success, 1 numerical failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .benchmarks import PRESETS
from .config import ConfigError, ExperimentConfig
from .exceptions import NumericalBlowupError, SolverFailureError
from .study import run_single, run_table
from .verify import run_all

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
                   help="example1 | example2 | example3 | zero")
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


def cmd_solve(args) -> int:
    cfg = build_config(args)
    if len(cfg.M) != 1:
        raise ConfigError(f"M must name one mesh size for solve, got {cfg.M}")
    M = cfg.M[0]
    res = run_single(cfg, M)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    steps = outdir / f"steps_{cfg.example}_M{M}_N{cfg.N}.csv"
    res.report.write_steps_csv(steps)
    summary = ", ".join(f"E_{mu:g} = {val:.5e}" for mu, val in res.E_mu.items())
    print(f"{cfg.example} M={M} N={cfg.N} gamma={cfg.gamma} alpha={cfg.alpha}: {summary}")
    print(f"wrote {steps}")
    return EXIT_OK


def cmd_table(args) -> int:
    preset = args.preset if args.preset != "custom" else None
    cfg = build_config(args, preset=preset)
    for a, b in zip(cfg.M, cfg.M[1:]):
        if b != 2 * a:
            raise ConfigError(f"M must double between table rows, got {cfg.M}")
    result = run_table(cfg)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    name = args.preset if args.preset != "custom" else "table_custom"
    csv_path = outdir / f"{name}.csv"
    csv_path.write_text(result.csv_text())
    print(result.text())
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_figure(args) -> int:
    cfg = build_config(args, preset=args.preset)
    result = run_table(cfg)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    for report in result.reports:
        path = outdir / f"{args.preset}_M{report.M}.csv"
        report.write_steps_csv(path)
        files.append(path)
    gp = outdir / f"{args.preset}.gp"
    lines = [
        "set logscale xy",
        "set xlabel 't'",
        "set ylabel 'max nodal error'",
        "set key left bottom",
        "plot " + ", \\\n     ".join(
            f"'{f.name}' using 2:3 with lines title 'M={r.M}'"
            for f, r in zip(files, result.reports)),
    ]
    gp.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(files)} error-curve files and {gp}")
    return EXIT_OK


def cmd_verify(args) -> int:
    ok, report = run_all()
    print(report)
    return EXIT_OK if ok else EXIT_NUMERICAL


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

    p = sub.add_parser("table", help="convergence table over an M sweep")
    p.add_argument("preset", choices=["table1", "table2", "table3", "custom"])
    _add_config_flags(p)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("figure", help="per-step error curves for an M sweep")
    p.add_argument("preset", choices=["figure1", "figure2", "figure3"])
    _add_config_flags(p)
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("verify", help="run the built-in verification suites")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalBlowupError, SolverFailureError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
