"""The benchmark's three workloads.

Each workload turns a seed into inputs during set-up, exposes one round of
operations (the same operations every round), records what each round
produced, and checks those outputs afterwards against `reference`, which
shares no code with retxdist. Inputs reach the program the way a user
gives them: preset names and config files for `retxdist run`, models
built from the presets for the exact queries.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

from retxdist import asym, cli, experiment, oracle
from retxdist.errors import RetxError

# The frozen CSV column set, written out here rather than read from the
# program, so a change to the program's columns shows as a failed check.
CSV_HEADER = ("n,mc_ccdf,mc_ci_lo,mc_ci_hi,oracle,uniform_approx,power_law,"
              "exp_tail,exact_integer,log_body")

# |log P - log P_ref| / max(1, |log P_ref|) allowed against the 30-digit
# reference, and against the float-arithmetic reference.
TOL_PRECISE = 1e-9
TOL_FLOAT = 1e-6
# Two-sided probability per grid point of the binomial band for Monte Carlo.
BAND_TAIL = 1e-9
# Grid points per case checked against the 30-digit quadrature reference
# (the Beta-route cases are checked at every point).
PRECISE_SAMPLE = 3


class OpFailed(Exception):
    """A `retxdist run` operation that exited with a nonzero code."""


def _log_err(value: float, ref: float) -> float:
    return abs(value - ref) / max(1.0, abs(ref))


def _spread(values: list, k: int) -> list:
    """k entries spread over a sorted list: first, middle(s), last."""
    if len(values) <= k:
        return list(values)
    return [values[round(i * (len(values) - 1) / (k - 1))] for i in range(k)]


# ---------------------------------------------------------------------------
# run-explicit and run-inverted: one `retxdist run` per config per round
# ---------------------------------------------------------------------------


class RunWorkload:
    """`retxdist run` on a list of configs at fixed sample budgets."""

    failure = OpFailed

    def __init__(self, name: str, seed: int, outdir: Path, configs: list):
        # configs: (name, config dict or None for a preset, samples)
        self.name = name
        self.outdir = outdir
        self.configs = configs
        rng = random.Random(f"{name}:{seed}")
        self.mc_seeds = {cname: rng.randrange(1, 2**32) for cname, _, _ in configs}
        self.cfg_dicts: dict = {}
        self.labels: dict = {}         # config name -> case labels, as the program names them
        self.argv: dict = {}
        self.files: dict = {}          # config name -> {label: csv bytes of round 0}
        self.rounds_seen = 0
        self.mismatches: list[str] = []

    def setup(self) -> None:
        for cname, raw, samples in self.configs:
            if raw is None:
                source = ["--preset", cname]
                raw = experiment.preset(cname).to_dict()
            else:
                path = self.outdir / f"{cname}.json"
                path.write_text(json.dumps(raw, indent=1), encoding="utf-8")
                source = ["--config", str(path)]
            self.cfg_dicts[cname] = raw
            self.labels[cname] = [c[0] for c in experiment.parse_config(raw).cases()]
            self.argv[cname] = ["run", *source, "--samples", str(samples),
                                "--workers", "1", "--seed", str(self.mc_seeds[cname]),
                                "--output", str(self.outdir / "out" / cname)]

    def warm_up(self) -> None:
        cname = self.configs[0][0]
        argv = list(self.argv[cname])
        argv[argv.index("--samples") + 1] = "1000"
        argv[argv.index("--output") + 1] = str(self.outdir / "warm" / cname)
        self._run(argv)

    def _run(self, argv: list) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise OpFailed(f"retxdist {' '.join(argv)} exited {code}")
        return buf.getvalue()

    def ops(self) -> list:
        return [(cname, (lambda a=self.argv[cname]: self._run(a)))
                for cname, _, _ in self.configs]

    def after_round(self, results: dict) -> None:
        """Keep round 0's CSV bytes; later rounds must reproduce them."""
        for cname, _, _ in self.configs:
            if not isinstance(results.get(cname), str):
                continue
            for label in self.labels[cname]:
                path = self.outdir / "out" / f"{cname}_{label}.csv"
                if f"wrote {path}" not in results[cname]:
                    self.mismatches.append(f"{cname}: {path.name} not reported written")
                    continue
                data = path.read_bytes()
                first = self.files.setdefault(cname, {}).setdefault(label, data)
                if data != first:
                    self.mismatches.append(
                        f"{cname} {label}: round {self.rounds_seen} output "
                        "differs from round 0 at the same seed")
        self.rounds_seen += 1

    def check(self) -> list[str]:
        from reference import case_specs
        errors = list(self.mismatches)
        for cname, _, samples in self.configs:
            specs = case_specs(self.cfg_dicts[cname])
            if [s.label for s in specs] != self.labels[cname]:
                errors.append(f"{cname}: cases {self.labels[cname]}, expected "
                              f"{[s.label for s in specs]}")
            for spec in specs:
                data = self.files.get(cname, {}).get(spec.label)
                if data is None:
                    errors.append(f"{cname} {spec.label}: no output")
                    continue
                errors += [f"{cname} {spec.label}: {e}"
                           for e in _check_curve(spec, data.decode(), samples)]
        return errors


def _check_curve(spec, text: str, samples: int) -> list[str]:
    from reference import log_ccdf
    from scipy.stats import binom
    lines = text.strip().split("\n")
    if lines[0] != CSV_HEADER:
        return [f"CSV header {lines[0]!r} is not the frozen column set"]
    cols = CSV_HEADER.split(",")
    rows = [dict(zip(cols, line.split(","))) for line in lines[1:]]
    num = {c: [float(r[c]) if r[c] else None for r in rows] for c in cols}
    grid = [int(r["n"]) for r in rows]
    errors = []
    if not grid or grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
        return [f"grid is not a strictly increasing list of counts >= 1: {grid}"]
    for col in ("oracle", "mc_ccdf"):
        vals = num[col]
        if any(v is None or not 0.0 <= v <= 1.0 for v in vals):
            errors.append(f"{col}: missing value or value outside [0, 1]")
        elif any(b > a for a, b in zip(vals, vals[1:])):
            errors.append(f"{col}: increases with n")
    if errors:
        return errors

    precise_ns = set(grid) if spec.exact_coupling else set(_spread(grid, PRECISE_SAMPLE))
    for i, n in enumerate(grid):
        ref = log_ccdf(spec, n, precise=n in precise_ns)
        tol = TOL_PRECISE if n in precise_ns else TOL_FLOAT
        orc = num["oracle"][i]
        if orc <= 0.0 or _log_err(math.log(orc), ref) > tol:
            errors.append(f"oracle at n={n}: {orc!r} against reference exp({ref!r})")
        p = math.exp(ref)
        k = round(num["mc_ccdf"][i] * samples)
        lo, hi = binom.ppf(BAND_TAIL, samples, p), binom.isf(BAND_TAIL, samples, p)
        if not lo <= k <= hi:
            errors.append(f"mc at n={n}: {k}/{samples} exceedances outside the "
                          f"binomial band [{lo:g}, {hi:g}] of p={p:.6g}")
        if not num["mc_ci_lo"][i] <= num["mc_ccdf"][i] <= num["mc_ci_hi"][i]:
            errors.append(f"mc interval at n={n} does not contain the estimate")
        ei = num["exact_integer"][i]
        if ei is not None and (ei <= 0.0 or _log_err(math.log(ei), ref) > TOL_PRECISE):
            errors.append(f"exact_integer at n={n}: {ei!r} against exp({ref!r})")
        for col in ("uniform_approx", "power_law", "exp_tail"):
            v = num[col][i]
            if v is not None and not (math.isfinite(v) and v >= 0.0):
                errors.append(f"{col} at n={n}: {v!r} is not a finite probability")
        lb = num["log_body"][i]
        if lb is not None and not (math.isfinite(lb) and lb <= 0.0):
            errors.append(f"log_body at n={n}: {lb!r} is not a finite log")
    return errors


# ---------------------------------------------------------------------------
# exact-query: one exact CCDF value plus the closed forms at one (case, n)
# ---------------------------------------------------------------------------

QUERY_PRESETS = ("example1a", "example1b", "example3", "example4")
QUERIES_PER_CASE = 32
QUERY_N_MIN = 2            # log_body is defined from n = 2
QUERY_N_MAX = 10_000       # deep-tail failures start at ~5.1e4 (example3 k0.5)
# example3 k2_b8 fails from n ~ 160 (absolute panel-width floor in the
# integrator): its drawn queries stay below that, and these fixed counts,
# which do not depend on the seed, fail every round until the fault is mended.
K2_CASE = ("example3", "k2_b8")
K2_N_MAX = 100
K2_FAILING_N = (178, 1000, 10_000)


class QueryWorkload:
    failure = RetxError

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.cases: dict = {}          # (preset, label) -> (model, params, ell_one, int_alpha)
        self.cfg_dicts: dict = {}
        self.queries: list = []
        self.first: dict | None = None
        self.rounds_seen = 0
        self.mismatches: list[str] = []

    def setup(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        for pname in QUERY_PRESETS:
            cfg = experiment.preset(pname)
            self.cfg_dicts[pname] = cfg.to_dict()
            ell_one = cfg.to_dict()["ell"]["kind"] == "one"
            int_alpha = cfg.alpha >= 1 and float(cfg.alpha).is_integer()
            for label, channel, doc, bound in cfg.cases():
                model = experiment.build_model(channel, doc, cfg.alpha, cfg.ell, bound)
                self.cases[(pname, label)] = (model, asym.ApproxParams.from_model(model),
                                              ell_one, int_alpha)
                top = K2_N_MAX if (pname, label) == K2_CASE else QUERY_N_MAX
                lo, hi = math.log(QUERY_N_MIN), math.log(top + 1)
                for _ in range(QUERIES_PER_CASE):
                    n = min(top, int(math.exp(rng.uniform(lo, hi))))
                    self.queries.append(((pname, label), n))
        self.queries += [(K2_CASE, n) for n in K2_FAILING_N]
        rng.shuffle(self.queries)

    def warm_up(self) -> None:
        for key in self.cases:
            self._query(key, 10)

    def _query(self, key, n: int) -> tuple:
        model, p, ell_one, int_alpha = self.cases[key]
        exp_tail = asym.exp_tail_asymptote if ell_one else asym.exp_tail_general
        closed = (asym.uniform_approx(p, n), asym.log_uniform_approx(p, n),
                  asym.power_law_limit(p, n), asym.log_body(p, n), exp_tail(p, n),
                  asym.log_exact_integer_ccdf(p, n) if ell_one and int_alpha else None)
        r = oracle.ccdf_exact(model, n)
        return (r.value, r.log_value) + closed

    def ops(self) -> list:
        return [(f"{key[0]}:{key[1]}:{n}", (lambda k=key, n=n: self._query(k, n)))
                for key, n in self.queries]

    def after_round(self, results: dict) -> None:
        """Round 0's results are kept; later rounds must match them exactly."""
        view = {k: (v if isinstance(v, tuple) else type(v).__name__)
                for k, v in results.items()}
        if self.first is None:
            self.first = view
        elif view != self.first:
            self.mismatches.append(f"round {self.rounds_seen} differs from round 0")
        self.rounds_seen += 1

    def check(self) -> list[str]:
        from reference import case_specs, log_ccdf
        specs = {(p, s.label): s for p, d in self.cfg_dicts.items() for s in case_specs(d)}
        errors = list(self.mismatches)
        by_case: dict = {}
        for opkey, out in (self.first or {}).items():
            if not isinstance(out, tuple):
                continue
            pname, label, n = opkey.split(":")
            by_case.setdefault((pname, label), {})[int(n)] = out
        for key, results in sorted(by_case.items()):
            spec = specs[key]
            ns = sorted(results)
            precise_ns = set(ns) if spec.exact_coupling else set(_spread(ns, PRECISE_SAMPLE))
            prev = math.inf
            for n in ns:
                value, log_value, ua, log_ua, pl, lb, et, log_ei = results[n]
                where = f"{key[0]} {key[1]} n={n}"
                if not (0.0 <= value <= 1.0 and log_value <= 0.0):
                    errors.append(f"{where}: oracle {value!r} (log {log_value!r}) "
                                  "is not a probability")
                if log_value > prev:
                    errors.append(f"{where}: oracle increases with n")
                prev = log_value
                ref = log_ccdf(spec, n, precise=n in precise_ns)
                tol = TOL_PRECISE if n in precise_ns else TOL_FLOAT
                if _log_err(log_value, ref) > tol:
                    errors.append(f"{where}: oracle log {log_value!r}, reference {ref!r}")
                if log_ei is not None and _log_err(log_ei, ref) > TOL_PRECISE:
                    errors.append(f"{where}: exact_integer log {log_ei!r}, "
                                  f"reference {ref!r}")
                if not all(math.isfinite(v) for v in (ua, log_ua, pl, lb, et)):
                    errors.append(f"{where}: a closed form is not finite")
                    continue
                if ua > 1e-300 and _log_err(math.log(ua), log_ua) > 1e-12:
                    errors.append(f"{where}: uniform_approx {ua!r} disagrees with "
                                  f"its log form {log_ua!r}")
                if min(ua, pl, et) < 0.0 or lb > 0.0:
                    errors.append(f"{where}: a closed form has the wrong sign")
        return errors


# ---------------------------------------------------------------------------
# Workload table
# ---------------------------------------------------------------------------

# Derived-document configs for run-inverted, written to files at set-up.
DERIVED_EXPONENTIAL = {
    "name": "derived-exp",
    "model": {"channel": {"family": "exponential", "rate": 1.0},
              "doc": {"derived": True}, "bound": [1.0, 4.0]},
    "alpha": 2.0, "ell": {"kind": "one"},
    "grid": {"n_min": 1, "n_max": None, "points_per_decade": 12},
}
DERIVED_WEIBULL = {
    "name": "derived-weibull",
    "model": {"channel": {"family": "weibull", "index": 0.5, "scale": 1.0},
              "doc": {"derived": True}, "bound": [4.0, 16.0]},
    "alpha": 1.5, "ell": {"kind": "log_power", "coeff": 1.0, "exponent": 1.0},
    "grid": {"n_min": 1, "n_max": None, "points_per_decade": 8},
}


def make(name: str, seed: int, outdir: Path):
    if name == "run-explicit":
        return RunWorkload(name, seed, outdir, [
            ("example1b", None, 1_000_000),
            ("example2", None, 1_000_000),
            ("example3", None, 1_000_000)])
    if name == "run-inverted":
        return RunWorkload(name, seed, outdir, [
            ("example4", None, 200_000),
            ("derived-exp", DERIVED_EXPONENTIAL, 30_000),
            ("derived-weibull", DERIVED_WEIBULL, 30_000)])
    if name == "exact-query":
        return QueryWorkload(name, seed)
    raise ValueError(f"unknown workload {name!r}")
