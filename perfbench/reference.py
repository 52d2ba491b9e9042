"""Reference values of P[N_b > n], computed apart from retxdist.

Nothing here imports the package under test. A case is described by the
plain config dict that `retxdist preset NAME` prints (or that the
benchmark writes), so the reference sees the same inputs as the program
and none of its code. Two routes:

- exact coupling with ell == 1 (Fbar = Gbar^alpha): with g = Gbar(b),

      P[N_b > n] = alpha * B_{1-g}(n + 1, alpha) / (1 - g^alpha),

  an incomplete Beta function evaluated by mpmath;
- every other model: E[(1 - Gbar(L_b))^n] integrated by parts in the
  document size x (not in the program's survival-quantile variable),

      P[N_b > n] = int_0^b n (1 - Gbar(x))^(n-1) g(x) (Fbar(x) - Fbar(b)) / F(b) dx,

  with g the channel density, by mpmath tanh-sinh quadrature on panels
  that close in geometrically on the bound, where the mass sits.

Both return log P, which stays finite far below float underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import mpmath

PRECISE_DPS = 30
# Panel edges b - b * 10^(-k/2): resolves boundary layers down to ~1e-11 b.
_LAYER_EDGES = 23


@dataclass(frozen=True)
class CaseSpec:
    """One (channel, document, bound) case of a config, as plain numbers."""

    label: str
    channel: dict
    doc: Optional[dict]          # None: derived from the channel
    bound: float
    alpha: float
    ell: dict

    @property
    def ell_is_one(self) -> bool:
        return self.ell.get("kind", "one") == "one"

    @property
    def exact_coupling(self) -> bool:
        """Fbar = Gbar^alpha holds exactly (so the Beta route applies)."""
        if not self.ell_is_one:
            return False
        if self.doc is None:
            return True
        ch, doc = self.channel, self.doc
        if ch["family"] == doc["family"] == "exponential":
            return math.isclose(doc["rate"], self.alpha * ch["rate"], rel_tol=1e-15)
        if ch["family"] == doc["family"] == "weibull" and ch["index"] == doc["index"]:
            return math.isclose((ch["scale"] / doc["scale"]) ** ch["index"],
                                self.alpha, rel_tol=1e-15)
        return False


def case_specs(cfg: dict) -> list[CaseSpec]:
    """Cases of a config dict in the program's file-label convention."""
    model = cfg["model"]
    bounds = model["bound"] if isinstance(model["bound"], list) else [model["bound"]]
    variants = cfg.get("variants") or [
        {"label": "", "channel": model["channel"], "doc": model.get("doc")}]
    ell = cfg.get("ell", {"kind": "one"})
    out = []
    for var in variants:
        doc = var.get("doc")
        doc = None if doc is None or doc.get("derived") else doc
        for b in bounds:
            label = f"b{b:g}" if not var["label"] else f"{var['label']}_b{b:g}"
            out.append(CaseSpec(label, var["channel"], doc, float(b),
                                float(cfg["alpha"]), ell))
    return out


# ---------------------------------------------------------------------------
# Laws, written for an mpmath context (mpmath.mp or the float context mpmath.fp)
# ---------------------------------------------------------------------------


def _log_survival(ctx, law: dict, x):
    fam = law["family"]
    if fam == "exponential":
        return -law["rate"] * x
    if fam == "weibull":
        return -(x / law["scale"]) ** law["index"]
    if fam == "gamma":
        return ctx.log(ctx.gammainc(law["shape"], law["rate"] * x, ctx.inf,
                                    regularized=True))
    raise ValueError(f"no reference for family {fam!r}")


def _density(ctx, law: dict, x):
    fam = law["family"]
    if fam == "exponential":
        return law["rate"] * ctx.exp(-law["rate"] * x)
    if fam == "weibull":
        k, s = law["index"], law["scale"]
        z = x / s
        return (k / s) * z ** (k - 1) * ctx.exp(-z ** k)
    raise ValueError(f"no channel density for family {fam!r}")


def _ell(ctx, ell: dict, log_y):
    kind = ell.get("kind", "one")
    if kind == "one":
        return 1
    if kind == "log_power":
        floor = ctx.log(ell.get("x_min", math.e))
        return ell["coeff"] * max(log_y, floor) ** ell["exponent"]
    raise ValueError(f"no reference for ell kind {kind!r}")


def _channel_quantile(law: dict, neg_log_q: float) -> float:
    """x with -log Gbar(x) = neg_log_q, for the channel families."""
    if law["family"] == "exponential":
        return neg_log_q / law["rate"]
    if law["family"] == "weibull":
        return law["scale"] * neg_log_q ** (1.0 / law["index"])
    raise ValueError(f"no channel quantile for family {law['family']!r}")


def _doc_survival(ctx, spec: CaseSpec, x):
    if spec.doc is not None:
        return ctx.exp(_log_survival(ctx, spec.doc, x))
    log_g = _log_survival(ctx, spec.channel, x)
    raw = ctx.exp(spec.alpha * log_g) / _ell(ctx, spec.ell, -log_g)
    return min(raw, 1)


# ---------------------------------------------------------------------------
# The two routes
# ---------------------------------------------------------------------------


def _log_ccdf_beta(spec: CaseSpec, n: int):
    ctx = mpmath.mp
    a = ctx.mpf(spec.alpha)
    g = ctx.exp(_log_survival(ctx, spec.channel, ctx.mpf(spec.bound)))
    return (ctx.log(a) + ctx.log(ctx.betainc(n + 1, a, 0, 1 - g))
            - ctx.log(1 - g ** a))


def _log_ccdf_by_parts(ctx, spec: CaseSpec, n: int):
    b = ctx.mpf(spec.bound)
    fbar_b = _doc_survival(ctx, spec, b)
    log_peak = ctx.log(-ctx.expm1(_log_survival(ctx, spec.channel, b)))

    def integrand(x):
        log_one_minus = ctx.log(-ctx.expm1(_log_survival(ctx, spec.channel, x)))
        return (n * ctx.exp((n - 1) * (log_one_minus - log_peak))
                * _density(ctx, spec.channel, x)
                * (_doc_survival(ctx, spec, x) - fbar_b))

    edges = [ctx.mpf(0)] + [b - b * ctx.mpf(10) ** (-ctx.mpf(k) / 2)
                            for k in range(1, _LAYER_EDGES + 1)] + [b]
    if spec.doc is None and spec.ell.get("kind") == "log_power":
        # The clamp of ell at x_min puts a kink in Fbar; quadrature panels
        # must not straddle it.
        kink = _channel_quantile(spec.channel, math.log(spec.ell.get("x_min", math.e)))
        if 0.0 < kink < spec.bound:
            edges = sorted(edges + [ctx.mpf(kink)])
    value = ctx.quad(integrand, edges)
    return ctx.log(value) + (n - 1) * log_peak - ctx.log(1 - fbar_b)


def log_ccdf(spec: CaseSpec, n: int, precise: bool = True) -> float:
    """log P[N_b > n] for n >= 1.

    precise=False integrates in float arithmetic (mpmath.fp), ~10x faster;
    it is used where a statistical band, not a digit count, is checked.
    The Beta route is always evaluated at PRECISE_DPS digits.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    with mpmath.workdps(PRECISE_DPS):
        if spec.exact_coupling:
            return float(_log_ccdf_beta(spec, n))
        ctx = mpmath.mp if precise else mpmath.fp
        return float(_log_ccdf_by_parts(ctx, spec, n))
