"""Command-line interface.

Verbs:
    run         execute an experiment from a config file or preset
    preset      print (or save) a named preset configuration as JSON
    oracle      exact CCDF values over the grid, CSV to stdout
    approx      closed-form approximation values over the grid
    transition  power-law-to-geometric transition report
    validate    hazard-proportionality residual check

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import asym, experiment
from .dists import CouplingMode, SlowVaryOne, validate_coupling
from .errors import ConfigInvalid, IoFailure, QuadratureFailure, RetxError
from .experiment import (ExperimentConfig, Source, _fmt, load_config, preset,
                         preset_names)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "config", None) and getattr(args, "preset", None):
        raise ConfigInvalid("give either --config or --preset, not both")
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    elif getattr(args, "preset", None):
        cfg = preset(args.preset)
    else:
        raise ConfigInvalid("one of --config or --preset is required")
    overrides = {}
    for name in ("samples", "seed", "workers", "confidence"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "output", None) is not None:
        overrides["output_prefix"] = args.output
    if getattr(args, "format", None) is not None:
        overrides["fmt"] = args.format
    if getattr(args, "n_max", None) is not None:
        overrides["grid"] = experiment.GridSpec(
            cfg.grid.n_min, args.n_max, cfg.grid.points_per_decade)
    if getattr(args, "curves", None):
        try:
            overrides["curves"] = frozenset(
                Source(c.strip()) for c in args.curves.split(",") if c.strip())
        except ValueError as exc:
            raise ConfigInvalid(f"unknown curve source: {exc}") from None
    if getattr(args, "skip_coupling_check", False):
        overrides["skip_coupling_check"] = True
    if overrides:
        import dataclasses
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _add_model_args(p: argparse.ArgumentParser, with_run_knobs: bool = True) -> None:
    p.add_argument("--config", help="path to a JSON experiment config")
    p.add_argument("--preset", choices=preset_names(),
                   help="use a named preset configuration")
    if with_run_knobs:
        p.add_argument("--samples", type=int, help="Monte Carlo sample budget")
        p.add_argument("--seed", type=int, help="base RNG seed")
        p.add_argument("--workers", type=int, help="number of RNG substreams")
        p.add_argument("--confidence", type=float, help="CI confidence level")
        p.add_argument("--output", help="output path prefix")
        p.add_argument("--format", choices=("csv", "json"), dest="format",
                       help="data file format")
        p.add_argument("--n-max", type=int, dest="n_max",
                       help="explicit grid upper end (disables auto sizing)")
        p.add_argument("--curves", help="comma-separated curve sources")
        p.add_argument("--skip-coupling-check", action="store_true",
                       dest="skip_coupling_check",
                       help="run even when the coupling residual exceeds 0.05")


def _requested_counts(args: argparse.Namespace) -> Optional[list[int]]:
    """The repeated --n values, or None when there are none; a negative
    count is a config error, raised before any output."""
    if args.n and min(args.n) < 0:
        raise ConfigInvalid(f"--n must be >= 0, got {min(args.n)}")
    return args.n


def _case_models(cfg: ExperimentConfig):
    for label, channel, doc_base, bound in cfg.cases():
        yield label, experiment.build_model(channel, doc_base, cfg.alpha,
                                            cfg.ell, bound)


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
    from .oracle import SeedCache, ccdf_exact
    cfg = _resolve_config(args)
    counts = _requested_counts(args)
    print("case,n,value,log_value,est_abs_err,subdivisions")
    for label, model in _case_models(cfg):
        grid = counts or experiment.candidate_grid(cfg, model)
        cache = SeedCache(model)
        for n in grid:
            try:
                r = ccdf_exact(model, n, cache=cache)
            except QuadratureFailure as exc:
                raise QuadratureFailure(f"case {label}: {exc}") from exc
            print(f"{label},{r.n},{_fmt(r.value)},{_fmt(r.log_value)},"
                  f"{_fmt(r.est_abs_err)},{r.subdivisions}")
    return EXIT_OK


def _approx_kinds(ell) -> dict:
    """Closed form per `approx --kind` name, for a model with this ell."""
    return {source.value: fn for source, fn in experiment.closed_forms(ell).items()}


def _cmd_approx(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    counts = _requested_counts(args)
    fns = _approx_kinds(cfg.ell)
    kinds = args.kind or ["uniform_approx", "power_law"]
    unknown = [k for k in kinds if k not in fns]
    if unknown:
        raise ConfigInvalid(f"unknown approximation kinds: {unknown}")
    print("case,n," + ",".join(kinds))
    for label, model in _case_models(cfg):
        p = asym.ApproxParams.from_model(model)
        grid = counts or experiment.candidate_grid(cfg, model)
        for n in grid:
            cells = []
            for kind in kinds:
                try:
                    cells.append(_fmt(fns[kind](p, n)))
                except RetxError:
                    cells.append("")
            print(f"{label},{n}," + ",".join(cells))
    return EXIT_OK


def _cmd_transition(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    out = {}
    for label, model in _case_models(cfg):
        report = asym.transition_point(asym.ApproxParams.from_model(model))
        out[label] = {"n_heuristic": report.n_heuristic,
                      "n_fixed_point": report.n_fixed_point,
                      "bracket": list(report.bracket)}
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    worst = 0.0
    for label, model in _case_models(cfg):
        if model.mode is not CouplingMode.PARAMETRIC:
            print(f"{label}: derived model (relation holds by construction)")
            continue
        rep = validate_coupling(model)
        status = "ok" if rep.max_residual <= experiment.COUPLING_TOLERANCE else "FAIL"
        print(f"{label}: max residual {rep.max_residual:.6g} [{status}]")
        worst = max(worst, rep.max_residual)
    return EXIT_OK if worst <= experiment.COUPLING_TOLERANCE else EXIT_NUMERIC


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
    p_oracle.add_argument("--n-max", type=int, dest="n_max")
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_approx = sub.add_parser("approx", help="closed-form approximations")
    _add_model_args(p_approx, with_run_knobs=False)
    p_approx.add_argument("--n", type=int, action="append")
    p_approx.add_argument("--kind", action="append",
                          help=f"one of {sorted(_approx_kinds(SlowVaryOne()))} (repeatable)")
    p_approx.add_argument("--n-max", type=int, dest="n_max")
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
