"""Command-line interface.

Verbs:
    run         execute an experiment from a config file or preset
    preset      print (or save) a named preset configuration as JSON
    oracle      exact CCDF values over the grid, CSV to stdout
    approx      closed-form approximation values over the grid
    transition  power-law-to-geometric transition report
    validate    hazard-proportionality residual check

Every verb but preset runs its cases through experiment.map_cases, so a
failure inside a case is reported as "error: case <label>: ...". approx
prints experiment.closed_form_columns, the cells run writes: empty where
a form is undefined.

Each flag that sets a run parameter has its config key as its dest
("grid.n_max" for --n-max); the config dict of the file or preset gets the
given flags written in and is parsed once.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from . import asym, experiment
from .errors import ConfigInvalid, IoFailure, RetxError
from .experiment import ExperimentConfig, _fmt, parse_config, preset, preset_names

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config and args.preset:
        raise ConfigInvalid("give either --config or --preset, not both")
    if args.config:
        raw = experiment.read_config(args.config)
    elif args.preset:
        raw = experiment.preset_dict(args.preset)
    else:
        raise ConfigInvalid("one of --config or --preset is required")
    for key, value in vars(args).items():
        if key in experiment.CONFIG_KEYS and value is not None:
            experiment.set_key(raw, key, value)
    return parse_config(raw)


def _add_model_args(p: argparse.ArgumentParser, with_run_knobs: bool = True) -> None:
    """--config and --preset, and with_run_knobs the flags of run."""
    p.add_argument("--config", help="path to a JSON experiment config")
    p.add_argument("--preset", choices=preset_names(),
                   help="use a named preset configuration")
    if with_run_knobs:
        p.add_argument("--samples", type=int, help="Monte Carlo sample budget")
        p.add_argument("--seed", type=int, help="base RNG seed")
        p.add_argument("--workers", type=int, help="processes; output does not depend on it")
        p.add_argument("--confidence", type=float, help="CI confidence level")
        p.add_argument("--output", help="output path prefix")
        p.add_argument("--format", choices=("csv", "json"), help="data file format")
        _add_n_max(p)
        p.add_argument("--curves", help="comma-separated curve sources",
                       type=lambda s: [c.strip() for c in s.split(",") if c.strip()])
        p.add_argument("--skip-coupling-check", action="store_true", default=None,
                       help="run even when the coupling residual exceeds 0.05")


def _add_n_max(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-max", type=int, dest="grid.n_max", metavar="N_MAX",
                   help="explicit grid upper end (disables auto sizing)")


def _requested_counts(args: argparse.Namespace) -> Optional[list[int]]:
    """The repeated --n values, or None when there are none; a negative
    count is a config error, raised before any output."""
    if args.n and min(args.n) < 0:
        raise ConfigInvalid(f"--n must be >= 0, got {min(args.n)}")
    return args.n


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    result = experiment.run_experiment(cfg)
    for case in result.cases:
        rep = case.report
        print(f"case {case.label}: {len(case.grid)} grid points", end="")
        if rep.ci_coverage is not None:
            print(f", CI coverage {rep.ci_coverage:.3f} over {rep.coverage_points}",
                  end="")
        print()
        for source, err in sorted(rep.max_rel_err.items()):
            if err is not None:
                print(f"  max rel err vs oracle [{source}]: {err:.4g}")
        if rep.transition is not None:
            print(f"  transition: heuristic {rep.transition.n_heuristic:.4g}, "
                  f"fixed point {rep.transition.n_fixed_point:.4g}")
        for path in case.files:
            print(f"  wrote {path}")
    return EXIT_OK


def _cmd_preset(args: argparse.Namespace) -> int:
    cfg = preset(args.name)
    text = json.dumps(cfg.to_dict(), indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise IoFailure(f"cannot write {args.out}: {exc}") from exc
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import ccdf_exact
    cfg = _resolve_config(args)
    counts = _requested_counts(args)
    print("case,n,value,log_value,est_abs_err,subdivisions")

    def rows(label, model) -> None:
        for n in counts or experiment.candidate_grid(cfg, model):
            r = ccdf_exact(model, n)
            print(f"{label},{r.n},{_fmt(r.value)},{_fmt(r.log_value)},"
                  f"{_fmt(r.est_abs_err)},{r.subdivisions}")

    experiment.map_cases(cfg, rows)
    return EXIT_OK


def _cmd_approx(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    counts = _requested_counts(args)
    kinds = args.kind or ["uniform_approx", "power_law"]
    unknown = [k for k in kinds if k not in experiment.CLOSED_FORMS]
    if unknown:
        raise ConfigInvalid(f"unknown approximation kinds: {unknown}")
    print("case,n," + ",".join(kinds))

    def rows(label, model) -> None:
        grid = counts or experiment.candidate_grid(cfg, model)
        columns = experiment.closed_form_columns(model, kinds, grid)
        cells = zip(*(columns[k].tolist() for k in kinds))
        for n, row in zip(grid, cells):
            print(f"{label},{n}," + ",".join(_fmt(v) for v in row))

    experiment.map_cases(cfg, rows)
    return EXIT_OK


def _cmd_transition(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)

    def report(label, model) -> tuple:
        p = asym.ApproxParams.from_model(model)
        return label, dataclasses.asdict(asym.transition_point(p))

    print(json.dumps(dict(experiment.map_cases(cfg, report)), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)

    def check(label, model) -> bool:
        residual = experiment.coupling_residual(model)
        if residual is None:
            print(f"{label}: derived model (relation holds by construction)")
            return True
        ok = residual <= experiment.COUPLING_TOLERANCE
        print(f"{label}: max residual {residual:.6g} [{'ok' if ok else 'FAIL'}]")
        return ok

    return EXIT_OK if all(experiment.map_cases(cfg, check)) else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retxdist",
        description="Retransmission-count distributions for bounded documents "
                    "over failure-prone channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment")
    _add_model_args(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_preset = sub.add_parser("preset", help="show or save a preset config")
    p_preset.add_argument("name", choices=preset_names())
    p_preset.add_argument("--out", help="write the config JSON to this path")
    p_preset.set_defaults(fn=_cmd_preset)

    p_oracle = sub.add_parser("oracle", help="exact CCDF values")
    _add_model_args(p_oracle, with_run_knobs=False)
    p_oracle.add_argument("--n", type=int, action="append",
                          help="evaluate at this count (repeatable)")
    _add_n_max(p_oracle)
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_approx = sub.add_parser("approx", help="closed-form approximations")
    _add_model_args(p_approx, with_run_knobs=False)
    p_approx.add_argument("--n", type=int, action="append")
    p_approx.add_argument("--kind", action="append",
                          help=f"one of {sorted(experiment.CLOSED_FORMS)} (repeatable)")
    _add_n_max(p_approx)
    p_approx.set_defaults(fn=_cmd_approx)

    p_tr = sub.add_parser("transition", help="transition-point report")
    _add_model_args(p_tr, with_run_knobs=False)
    p_tr.set_defaults(fn=_cmd_transition)

    p_val = sub.add_parser("validate", help="coupling residual check")
    _add_model_args(p_val, with_run_knobs=False)
    p_val.set_defaults(fn=_cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our config exit code
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RetxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
