"""Config-driven experiment runner and curve emission.

An experiment is one model family evaluated over one or more bounds (and
optionally several channel/document variants). Each case yields one table
over its grid, one float array per column of the requested sources, a
comparison report against the exact quadrature oracle, and a CSV/JSON
file of that table with a JSON metadata sidecar.

The config format lives here alone. parse_config reads a config dict,
ExperimentConfig.to_dict writes one that reads back equal, and every key a
CLI flag sets is in CONFIG_KEYS. Law and ell blocks map through their
family/kind tag and dataclass fields.

Every CLI verb goes through the same case path: map_cases builds each
case's model and prefixes any RetxError raised inside the case with
"case <label>: "; closed_form_columns computes the closed forms over a
grid, NaN where a form is undefined; coupling_residual reads a model's
coupling residual.

The CSV column set is a frozen compatibility surface:

    n, mc_ccdf, mc_ci_lo, mc_ci_hi, oracle, uniform_approx, power_law,
    exp_tail, exact_integer, log_body

Absent sources leave their fields empty. All float fields carry 17
significant digits so a reload is numerically identical.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from . import asym
from .dists import (
    CoupledModel,
    CouplingMode,
    Exponential,
    Gamma,
    Law,
    SlowVary,
    SlowVaryGammaDoc,
    SlowVaryLogPower,
    SlowVaryOne,
    Weibull,
    derive_doc_law,
    validate_coupling,
)
from .errors import (
    ConfigInvalid,
    CouplingInvalid,
    EllNotOne,
    InvalidParameter,
    IoFailure,
    NoRoot,
    NotInteger,
    RetxError,
    UnknownPreset,
)
from .mc import empirical_ccdf, run_tally
# ccdf_exact is not called here; perfbench/spans.py patches it by name.
from .oracle import OracleResult, ccdf_exact, ccdf_exact_curve

ENV_OUTDIR = "RETXDIST_OUTDIR"

CSV_COLUMNS = ("n", "mc_ccdf", "mc_ci_lo", "mc_ci_hi", "oracle",
               "uniform_approx", "power_law", "exp_tail", "exact_integer",
               "log_body")


class Source(Enum):
    """A curve a config can request.

    Each value other than "mc" is its CSV column; "mc" fills mc_ccdf,
    mc_ci_lo and mc_ci_hi.
    """

    MONTE_CARLO = "mc"
    ORACLE = "oracle"
    UNIFORM_APPROX = "uniform_approx"
    POWER_LAW = "power_law"
    EXP_TAIL = "exp_tail"
    EXACT_INTEGER = "exact_integer"
    LOG_BODY = "log_body"


DEFAULT_SAMPLES = 10_000_000
DEFAULT_CURVES = frozenset({Source.MONTE_CARLO, Source.ORACLE,
                            Source.UNIFORM_APPROX, Source.POWER_LAW})
COUPLING_TOLERANCE = 0.05
ORACLE_REPORT_THRESHOLD = 1e-6
MIN_EXPECTED_TAIL_HITS = 10     # auto grids stop where oracle < this / samples


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced integer grid of retransmission counts.

    n_max None means auto-sizing: the grid runs to ten times the
    transition point and is trimmed where the oracle CCDF drops below
    MIN_EXPECTED_TAIL_HITS / samples. An explicit n_max is honored
    verbatim (no oracle trim).
    """

    n_min: int = 1
    n_max: Optional[int] = None
    points_per_decade: int = 24

    def __post_init__(self) -> None:
        if self.n_min < 1:
            raise ConfigInvalid(f"grid n_min must be >= 1, got {self.n_min}")
        if self.n_max is not None and self.n_max < self.n_min:
            raise ConfigInvalid("grid n_max must be >= n_min")
        if self.points_per_decade < 1:
            raise ConfigInvalid("points_per_decade must be >= 1")


@dataclass(frozen=True)
class ModelVariant:
    """Channel/document override for multi-model experiments."""

    label: str
    channel: Law
    doc_base: Optional[Law]


@dataclass(frozen=True)
class ExperimentConfig:
    channel: Law
    doc_base: Optional[Law]               # None: document law derived from channel
    bounds: tuple[float, ...]
    alpha: float
    name: str = "experiment"
    ell: SlowVary = field(default_factory=SlowVaryOne)
    grid: GridSpec = field(default_factory=GridSpec)
    samples: int = DEFAULT_SAMPLES
    seed: int = 20260808
    workers: int = 1
    confidence: float = 0.95
    curves: frozenset = DEFAULT_CURVES
    output_prefix: Optional[str] = None
    fmt: str = "csv"
    variants: tuple[ModelVariant, ...] = ()
    skip_coupling_check: bool = False

    def __post_init__(self) -> None:
        if not self.bounds:
            raise ConfigInvalid("at least one bound is required")
        if any(not b > 0 for b in self.bounds):
            raise ConfigInvalid(f"bounds must be positive, got {self.bounds}")
        if self.samples < 1000:
            raise ConfigInvalid(f"samples must be >= 1000, got {self.samples}")
        if not 0.5 < self.confidence < 1.0:
            raise ConfigInvalid(
                f"confidence must be in (0.5, 1), got {self.confidence}")
        if self.workers < 1:
            raise ConfigInvalid(f"workers must be >= 1, got {self.workers}")
        if self.fmt not in ("csv", "json"):
            raise ConfigInvalid(f"format must be csv or json, got {self.fmt}")
        if not self.curves:
            raise ConfigInvalid("at least one curve source is required")
        if Source.EXACT_INTEGER in self.curves:
            try:
                asym.require_integer_alpha(self.alpha)
                asym.require_ell_one(self.ell)
            except (NotInteger, EllNotOne) as exc:
                raise ConfigInvalid(f"exact_integer curve: {exc}") from None

    def cases(self) -> list[tuple[str, Law, Optional[Law], float]]:
        """(label, channel, doc_base, bound) per emitted file."""
        out = []
        variants = self.variants or (
            ModelVariant("", self.channel, self.doc_base),)
        for var in variants:
            for b in self.bounds:
                label = f"b{b:g}" if not var.label else f"{var.label}_b{b:g}"
                out.append((label, var.channel, var.doc_base, b))
        return out

    def to_dict(self) -> dict:
        """The config block that parse_config reads back to an equal config."""
        d = {
            "model": {**_write_laws(self.channel, self.doc_base),
                      "bound": list(self.bounds)},
            "alpha": self.alpha,
            "ell": _write_tagged(self.ell, "kind"),
            "grid": dataclasses.asdict(self.grid),
            "curves": sorted(s.value for s in self.curves),
        }
        d.update((key, getattr(self, name)) for key, name, _ in _OPTIONAL_KEYS
                 if getattr(self, name) is not None)
        if self.variants:
            d["variants"] = [{"label": v.label, **_write_laws(v.channel, v.doc_base)}
                             for v in self.variants]
        return d


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

# Optional top-level keys as (key, ExperimentConfig field, converter): left
# out or null, the field's default; to_dict leaves out a None field.
_OPTIONAL_KEYS = (("name", "name", str), ("samples", "samples", int),
                  ("seed", "seed", int), ("workers", "workers", int),
                  ("confidence", "confidence", float), ("output", "output_prefix", str),
                  ("format", "fmt", str),
                  ("skip_coupling_check", "skip_coupling_check", bool))
_TOP_KEYS = {"model", "alpha", "ell", "grid", "curves", "variants",
             *(key for key, _, _ in _OPTIONAL_KEYS)}
# Every key a CLI flag may set: the top-level keys and "grid.<field>".
CONFIG_KEYS = frozenset(_TOP_KEYS | {f"grid.{f.name}" for f in dataclasses.fields(GridSpec)})
# Law and ell blocks: the tag names the class, its dataclass fields the rest.
_TAGGED = {"family": {cls.family: cls for cls in (Exponential, Weibull, Gamma)},
           "kind": {cls.kind: cls for cls in (SlowVaryOne, SlowVaryLogPower,
                                              SlowVaryGammaDoc)}}


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigInvalid(f"{what} must be an object, got {value!r}")
    return value


def _write_tagged(obj, tag: str) -> dict:
    return {tag: getattr(obj, tag), **dataclasses.asdict(obj)}


def _read_tagged(spec, what: str, tag: str, default: Optional[str] = None):
    """The law or ell of a block; a field with a default may be left out."""
    classes = _TAGGED[tag]
    name = _object(spec, what).get(tag, default)
    if name not in classes:
        raise ConfigInvalid(f"{what}: unknown {tag} {name!r}; known: {sorted(classes)}")
    cls = classes[name]
    return cls(**{f.name: float(spec[f.name]) for f in dataclasses.fields(cls)
                  if f.default is dataclasses.MISSING or spec.get(f.name) is not None})


def _write_laws(channel: Law, doc_base: Optional[Law]) -> dict:
    return {"channel": _write_tagged(channel, "family"),
            "doc": ({"derived": True} if doc_base is None
                    else _write_tagged(doc_base, "family"))}


def _read_laws(block, what: str) -> tuple[Law, Optional[Law]]:
    """(channel, doc_base) of a model or variant block. A doc block left out
    or {"derived": true} derives the document law: doc_base None."""
    doc = _object(_object(block, what).get("doc", {"derived": True}), "doc")
    return (_read_tagged(block["channel"], "channel", "family"),
            None if doc.get("derived") else _read_tagged(doc, "doc", "family"))


def _infer_alpha(channel: Law, doc: Optional[Law]) -> float:
    """alpha making Fbar = Gbar^alpha hold exactly, when one exists."""
    if doc is None:
        raise ConfigInvalid("derived models require an explicit alpha")
    if isinstance(channel, Exponential) and isinstance(doc, Exponential):
        return doc.rate / channel.rate
    if isinstance(channel, Weibull) and isinstance(doc, Weibull) \
            and channel.index == doc.index:
        return (channel.scale / doc.scale) ** channel.index
    raise ConfigInvalid(
        "alpha cannot be inferred for this channel/document pair; set it")


def parse_config(raw: dict) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a plain config dict.

    Every block (model, variant, law, doc, ell, grid) must be an object; any
    other malformed value raises ConfigInvalid as well.
    """
    _object(raw, "config root")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
    try:
        model = raw["model"]
        channel, doc_base = _read_laws(model, "model")
        bound = model["bound"]
        bounds = tuple(float(b) for b in (bound if isinstance(bound, (list, tuple))
                                          else [bound]))
        ell = _read_tagged(raw.get("ell", {}), "ell", "kind", SlowVaryOne.kind)
        alpha = (float(raw["alpha"]) if raw.get("alpha") is not None
                 else _infer_alpha(channel, doc_base))
        grid_raw = _object(raw.get("grid", {}), "grid")
        grid = GridSpec(**{f.name: int(grid_raw[f.name]) for f in dataclasses.fields(GridSpec)
                           if grid_raw.get(f.name) is not None})
        curves = raw.get("curves")
        try:
            curve_set = DEFAULT_CURVES if curves is None else frozenset(map(Source, curves))
        except ValueError as exc:
            raise ConfigInvalid(f"unknown curve source: {exc}") from None
        variants = tuple(ModelVariant(str(v["label"]), *_read_laws(v, "variant"))
                         for v in raw.get("variants", ()))
        return ExperimentConfig(
            channel=channel, doc_base=doc_base, bounds=bounds, alpha=alpha,
            ell=ell, grid=grid, curves=curve_set, variants=variants,
            **{name: convert(raw[key]) for key, name, convert in _OPTIONAL_KEYS
               if raw.get(key) is not None})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"bad config: {exc!r}") from exc


def set_key(raw: dict, key: str, value) -> None:
    """Write value under a CONFIG_KEYS key of raw; "grid.n_max" is n_max in
    the grid block, which is copied rather than changed in place."""
    raw = _object(raw, "config root")
    block, _, leaf = key.rpartition(".")
    if block:
        value = {**_object(raw.get(block, {}), block), leaf: value}
    raw[block or leaf] = value


def read_config(path: Union[str, Path]) -> dict:
    """The config dict in a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config {path} is not valid JSON: {exc}") from exc


def load_config(path: Union[str, Path]) -> ExperimentConfig:
    return parse_config(read_config(path))


# ---------------------------------------------------------------------------
# Presets: the four simulation experiments, at desk scale
# ---------------------------------------------------------------------------


def _exp(rate: float) -> dict:
    return {"family": "exponential", "rate": rate}


def _weib(index: float, scale: float) -> dict:
    return {"family": "weibull", "index": index, "scale": scale}


_PRESETS: dict[str, dict] = {
    # Exponential documents (rate 2) on an exponential channel (rate 1):
    # power-law index 2, bounds 1/2/4.
    "example1a": {
        "name": "example1a",
        "model": {"channel": _exp(1.0), "doc": _exp(2.0), "bound": [1.0, 2.0, 4.0]},
        "alpha": 2.0,
        "seed": 20260801,
        "curves": ["mc", "oracle", "uniform_approx", "power_law", "exact_integer"],
    },
    # Heavier documents than availability periods: index 0.5.
    "example1b": {
        "name": "example1b",
        "model": {"channel": _exp(2.0), "doc": _exp(1.0), "bound": [1.0, 2.0, 4.0]},
        "alpha": 0.5,
        "seed": 20260802,
        "curves": ["mc", "oracle", "uniform_approx", "power_law"],
    },
    # Same model as example1a, focused on the geometric tail handover.
    "example2": {
        "name": "example2",
        "model": {"channel": _exp(1.0), "doc": _exp(2.0), "bound": [1.0, 2.0, 4.0]},
        "alpha": 2.0,
        "seed": 20260803,
        "curves": ["mc", "oracle", "uniform_approx", "power_law",
                   "exact_integer", "exp_tail", "log_body"],
    },
    # Weibull pairs with matched index; lighter channel tails widen the
    # power-law region. alpha = (scale_A / scale_L)^k = 4 in every variant.
    "example3": {
        "name": "example3",
        "model": {"channel": _weib(1.0, 4.0), "doc": _weib(1.0, 1.0), "bound": 8.0},
        "alpha": 4.0,
        "seed": 20260804,
        "curves": ["mc", "oracle", "uniform_approx", "power_law"],
        "variants": [
            {"label": "k0.5", "channel": _weib(0.5, 16.0), "doc": _weib(0.5, 1.0)},
            {"label": "k1", "channel": _weib(1.0, 4.0), "doc": _weib(1.0, 1.0)},
            {"label": "k2", "channel": _weib(2.0, 2.0), "doc": _weib(2.0, 1.0)},
        ],
    },
    # Gamma documents on an exponential channel: nontrivial slowly varying
    # part, evaluated exactly.
    "example4": {
        "name": "example4",
        "model": {"channel": _exp(2.0),
                  "doc": {"family": "gamma", "rate": 2.0, "shape": 2.0},
                  "bound": [2.0, 3.0, 4.0]},
        "alpha": 1.0,
        "ell": {"kind": "gamma_doc_exact", "doc_rate": 2.0, "shape": 2.0,
                "channel_rate": 2.0},
        "seed": 20260805,
        "curves": ["mc", "oracle", "uniform_approx", "power_law", "exp_tail"],
    },
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def preset_dict(name: str) -> dict:
    """A copy of a named preset's config dict; UnknownPreset for anything else."""
    try:
        return copy.deepcopy(_PRESETS[name])
    except KeyError:
        raise UnknownPreset(
            f"unknown preset {name!r}; available: {preset_names()}") from None


def preset(name: str) -> ExperimentConfig:
    return parse_config(preset_dict(name))


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


def log_grid(n_min: int, n_max: int, points_per_decade: int = 24) -> list[int]:
    """Unique integers log-spaced at the given density, inclusive of ends."""
    if n_max < n_min:
        raise InvalidParameter("n_max must be >= n_min")
    k_lo = math.floor(points_per_decade * math.log10(max(n_min, 1)))
    k_hi = math.ceil(points_per_decade * math.log10(max(n_max, 1)))
    pts = {n_min, n_max}
    for k in range(k_lo, k_hi + 1):
        n = round(10 ** (k / points_per_decade))
        if n_min <= n <= n_max:
            pts.add(int(n))
    return sorted(pts)


def _auto_n_max(model: CoupledModel) -> int:
    """Ten times the transition point (heuristic fallback without a root)."""
    p = asym.ApproxParams.from_model(model)
    try:
        n_fp = asym.transition_point(p).n_fixed_point
    except NoRoot:
        n_fp = max(10.0, p.alpha / p.gbar_b)
    return max(10, math.ceil(10.0 * n_fp))


def candidate_grid(cfg: ExperimentConfig, model: CoupledModel) -> list[int]:
    """A case's grid before the auto-grid oracle trim; see GridSpec."""
    n_max = _auto_n_max(model) if cfg.grid.n_max is None else cfg.grid.n_max
    return log_grid(cfg.grid.n_min, n_max, cfg.grid.points_per_decade)


# ---------------------------------------------------------------------------
# Reports and the runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonReport:
    """Per-case agreement summary against the oracle.

    max_rel_err maps source name to the maximum relative error over grid
    points where the oracle is at least the reporting threshold (for the
    log-scale body curve the ratio is taken between logs). ci_coverage is
    the fraction of Monte Carlo intervals containing the oracle value.
    """

    label: str
    bound: float
    oracle_threshold: float
    max_rel_err: dict
    ci_coverage: Optional[float]
    coverage_points: int
    transition: Optional[asym.TransitionReport]
    coupling_residual: Optional[float]


@dataclass(frozen=True)
class CaseResult:
    """One case: its grid and the table written for it.

    table maps each computed CSV column (every one but n) to a float array
    over grid; NaN marks a point a closed form does not define there. The
    log_body column holds the log-scale approximation itself, every other
    column a probability.
    """

    label: str
    bound: float
    model: CoupledModel
    grid: tuple[int, ...]
    table: dict
    oracle: tuple[OracleResult, ...]
    report: ComparisonReport
    files: tuple[Path, ...]


@dataclass(frozen=True)
class RunResult:
    config: ExperimentConfig
    cases: tuple[CaseResult, ...]


def build_model(channel: Law, doc_base: Optional[Law], alpha: float,
                ell: SlowVary, bound: float) -> CoupledModel:
    if doc_base is None:
        return derive_doc_law(channel, alpha, ell, bound)
    return CoupledModel.parametric(channel, doc_base, alpha, ell, bound)


def map_cases(cfg: ExperimentConfig,
              fn: Callable[[str, CoupledModel], object]) -> list:
    """fn(label, model) for each case of cfg, in order.

    The one place a case's model is built, and the one place a RetxError
    raised inside a case, while building its model or in fn, gains the
    prefix "case <label>: " (same type, the original chained).
    """
    out = []
    for label, channel, doc_base, bound in cfg.cases():
        try:
            out.append(fn(label, build_model(channel, doc_base, cfg.alpha,
                                             cfg.ell, bound)))
        except RetxError as exc:
            raise type(exc)(f"case {label}: {exc}") from exc
    return out


def coupling_residual(model: CoupledModel) -> Optional[float]:
    """Maximum hazard-proportionality residual of a parametric model; None
    for a derived one, where the relation holds by construction."""
    if model.mode is not CouplingMode.PARAMETRIC:
        return None
    return validate_coupling(model).max_residual


def exp_tail_variant(ell: SlowVary) -> str:
    """Which geometric-tail form applies: the fixed-bound asymptote needs ell == 1."""
    return "fixed_bound" if isinstance(ell, SlowVaryOne) else "general_slow_variation"


# Closed-form column (and `approx --kind` name) -> its asym function for a
# model's ell. Each lambda reads the asym attribute when called, so a
# patched function is the one used.
CLOSED_FORMS = {
    Source.UNIFORM_APPROX.value: lambda ell: asym.uniform_approx,
    Source.POWER_LAW.value: lambda ell: asym.power_law_limit,
    Source.EXACT_INTEGER.value: lambda ell: asym.exact_integer_ccdf,
    Source.EXP_TAIL.value: lambda ell: (
        asym.exp_tail_asymptote if exp_tail_variant(ell) == "fixed_bound"
        else asym.exp_tail_general),
    Source.LOG_BODY.value: lambda ell: asym.log_body,
}


def closed_form_columns(model: CoupledModel, names: Iterable[str],
                        grid: Sequence[int]) -> dict:
    """Column per closed-form name (a CLOSED_FORMS key) over grid.

    A cell is NaN where its form is undefined: where it raises
    InvalidParameter, NotInteger or EllNotOne. Any other RetxError
    propagates.
    """
    p = asym.ApproxParams.from_model(model)

    def value(fn, n: int) -> float:
        try:
            return fn(p, n)
        except (InvalidParameter, NotInteger, EllNotOne):
            return math.nan

    columns = {}
    for name in names:
        fn = CLOSED_FORMS[name](model.ell)
        columns[name] = np.array([value(fn, n) for n in grid], dtype=float)
    return columns


def _run_case(cfg: ExperimentConfig, label: str, model: CoupledModel) -> CaseResult:
    residual = coupling_residual(model)
    if (residual is not None and residual > COUPLING_TOLERANCE
            and not cfg.skip_coupling_check):
        raise CouplingInvalid(f"hazard-proportionality residual {residual:.4g} "
                              f"exceeds {COUPLING_TOLERANCE}")

    # The oracle is evaluated regardless of the requested curves: it
    # drives auto-grid trimming and the comparison report.
    floor = MIN_EXPECTED_TAIL_HITS / cfg.samples if cfg.grid.n_max is None else None
    oracle_results = ccdf_exact_curve(model, candidate_grid(cfg, model),
                                      stop_below=floor)
    grid = [r.n for r in oracle_results]

    table: dict = {}
    if Source.MONTE_CARLO in cfg.curves:
        tally = run_tally(model, grid, cfg.samples, cfg.seed, cfg.workers)
        table["mc_ccdf"], table["mc_ci_lo"], table["mc_ci_hi"] = \
            empirical_ccdf(tally, cfg.confidence)
    if Source.ORACLE in cfg.curves:
        table["oracle"] = np.array([r.value for r in oracle_results])
    table.update(closed_form_columns(
        model, [name for name in CLOSED_FORMS if Source(name) in cfg.curves], grid))

    report = _compare(label, model, oracle_results, table, residual)
    files = tuple(emit_curves(table, report, cfg, label, grid)) \
        if cfg.output_prefix is not None else ()
    return CaseResult(label, model.bound, model, tuple(grid), table,
                      tuple(oracle_results), report, files)


def _compare(label: str, model: CoupledModel,
             oracle_results: Sequence[OracleResult], table: dict,
             residual: Optional[float]) -> ComparisonReport:
    value = np.array([r.value for r in oracle_results])
    log_value = np.array([r.log_value for r in oracle_results])
    max_err: dict = {}
    for col, v in table.items():
        if col == "oracle" or col.startswith("mc_"):
            continue
        use = (value >= ORACLE_REPORT_THRESHOLD) & ~np.isnan(v)
        if col == Source.LOG_BODY.value:
            err = np.abs(v[use] / log_value[use] - 1.0)
        else:
            err = np.abs(v[use] - value[use]) / value[use]
        max_err[col] = float(err.max()) if err.size else None

    coverage = None
    npoints = 0
    if "mc_ccdf" in table:
        npoints = len(value)
        hits = int(np.count_nonzero((table["mc_ci_lo"] <= value)
                                    & (value <= table["mc_ci_hi"])))
        coverage = hits / npoints

    try:
        transition = asym.transition_point(asym.ApproxParams.from_model(model))
    except (NoRoot, InvalidParameter):
        transition = None
    return ComparisonReport(label, model.bound, ORACLE_REPORT_THRESHOLD, max_err,
                            coverage, npoints, transition, residual)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Run every case of the experiment; see the module docstring."""
    cases = map_cases(cfg, lambda label, model: _run_case(cfg, label, model))
    return RunResult(cfg, tuple(cases))


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    if v is None or math.isnan(v):
        return ""
    return format(v, ".17g")


def emit_curves(table: dict, report: ComparisonReport, cfg: ExperimentConfig,
                label: str, grid: Sequence[int]) -> list[Path]:
    """Write the case table as a data file plus its metadata sidecar.

    Returns the created paths. Output location comes from the config
    prefix, resolved against RETXDIST_OUTDIR when relative.
    """
    prefix = Path(cfg.output_prefix)
    outdir = os.environ.get(ENV_OUTDIR)
    if outdir and not prefix.is_absolute():
        prefix = Path(outdir) / prefix
    stem = f"{prefix.name}_{label}" if label else prefix.name
    base = prefix.parent / stem
    columns = [[None if math.isnan(v) else v for v in table[c].tolist()]
               if c in table else [None] * len(grid) for c in CSV_COLUMNS[1:]]
    rows = [[int(n), *cells] for n, *cells in zip(grid, *columns)]
    try:
        base.parent.mkdir(parents=True, exist_ok=True)
        # string concatenation, not with_suffix: labels may contain dots
        if cfg.fmt == "csv":
            data_path = base.parent / (stem + ".csv")
            lines = [",".join(CSV_COLUMNS)]
            for row in rows:
                lines.append(",".join([str(row[0])] + [_fmt(v) for v in row[1:]]))
            data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        else:
            data_path = base.parent / (stem + ".json")
            payload = {"columns": list(CSV_COLUMNS), "rows": rows}
            data_path.write_text(json.dumps(payload, sort_keys=True, indent=1)
                                 + "\n", encoding="utf-8")
        from . import __version__
        meta = {
            "artifact_version": __version__,
            "case": label,
            "config": cfg.to_dict(),
            "seed": cfg.seed,
            "exp_tail_variant": exp_tail_variant(cfg.ell),
            "report": dataclasses.asdict(report),
        }
        meta_path = base.parent / (stem + ".meta.json")
        meta_path.write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n",
                             encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write results under {base}: {exc}") from exc
    return [data_path, meta_path]


def read_curve_file(path: Union[str, Path]) -> dict:
    """Reload an emitted data file into {column: list-of-optional-float}."""
    path = Path(path)
    out: dict = {c: [] for c in CSV_COLUMNS}
    if path.suffix == ".json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        for row in payload["rows"]:
            for c, v in zip(payload["columns"], row):
                out[c].append(v)
        return out
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    if list(header) != list(CSV_COLUMNS):
        raise IoFailure(f"unexpected columns in {path}: {header}")
    for line in lines[1:]:
        for c, cell in zip(header, line.split(",")):
            if cell == "":
                out[c].append(None)
            elif c == "n":
                out[c].append(int(cell))
            else:
                out[c].append(float(cell))
    return out
