"""Document and channel-availability laws.

Three parametric continuous families (exponential, Weibull, gamma), the
bounded document law obtained by conditioning on [0, b], slowly varying
modulation functions, and the coupled channel/document model tied by the
hazard-proportionality relation

    Fbar(x) = Gbar(x)^alpha / ell(1 / Gbar(x)),

where Gbar is the channel-availability survival function and Fbar the
document-size survival function. Models can be built parametrically (both
laws given, relation verified on a grid) or derived (document law defined
from the channel law through the relation).

Scalar evaluations of the gamma family go through the in-house
incomplete-Gamma evaluator; ndarray evaluations use scipy.special's
equivalents for speed. The two routes are cross-checked in the tests.

All classes are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Union

import numpy as np
from scipy import special

from . import gammafn
from .errors import (
    DegenerateTruncation,
    InvalidParameter,
    NonConvergence,
    NotMonotone,
)

ArrayLike = Union[float, np.ndarray]

# Grid sizes fixed by the model-validation contracts.
COUPLING_GRID_POINTS = 64
DERIVED_GRID_POINTS = 256


# ---------------------------------------------------------------------------
# Parametric laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exponential:
    """Exponential law with survival function exp(-rate * x)."""

    rate: float
    family = "exponential"

    def __post_init__(self) -> None:
        if not self.rate > 0.0:
            raise InvalidParameter(f"rate must be positive, got {self.rate}")

    def ccdf(self, x: ArrayLike) -> ArrayLike:
        return np.exp(-self.rate * np.asarray(x, dtype=float)) if isinstance(x, np.ndarray) \
            else math.exp(-self.rate * x)

    def log_ccdf(self, x: ArrayLike) -> ArrayLike:
        return -self.rate * x

    def cdf(self, x: ArrayLike) -> ArrayLike:
        return -np.expm1(-self.rate * x)

    def quantile_ccdf(self, q: ArrayLike) -> ArrayLike:
        """x such that ccdf(x) = q, for q in (0, 1]."""
        _check_q(q)
        return np.log(q) / -self.rate if isinstance(q, np.ndarray) \
            else math.log(q) / -self.rate

    def quantile_log_ccdf(self, log_q: ArrayLike) -> ArrayLike:
        """x such that log ccdf(x) = log_q, for log_q <= 0."""
        return log_q / -self.rate

    def sample(self, rng) -> float:
        return float(self.quantile_ccdf(rng.uniform()))

    def params(self) -> dict:
        return {"family": self.family, "rate": self.rate}


@dataclass(frozen=True)
class Weibull:
    """Weibull law with survival function exp(-(x / scale)^index)."""

    index: float
    scale: float
    family = "weibull"

    def __post_init__(self) -> None:
        if not (self.index > 0.0 and self.scale > 0.0):
            raise InvalidParameter(
                f"index and scale must be positive, got {self.index}, {self.scale}")

    def ccdf(self, x: ArrayLike) -> ArrayLike:
        return np.exp(self.log_ccdf(x)) if isinstance(x, np.ndarray) \
            else math.exp(self.log_ccdf(x))

    def log_ccdf(self, x: ArrayLike) -> ArrayLike:
        if isinstance(x, np.ndarray):
            return -((np.asarray(x, dtype=float) / self.scale) ** self.index)
        return -((x / self.scale) ** self.index)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        return -np.expm1(self.log_ccdf(x))

    def quantile_ccdf(self, q: ArrayLike) -> ArrayLike:
        _check_q(q)
        if isinstance(q, np.ndarray):
            return self.scale * (-np.log(q)) ** (1.0 / self.index)
        return self.scale * (-math.log(q)) ** (1.0 / self.index)

    def quantile_log_ccdf(self, log_q: ArrayLike) -> ArrayLike:
        return self.scale * (-log_q) ** (1.0 / self.index)

    def sample(self, rng) -> float:
        return float(self.quantile_ccdf(rng.uniform()))

    def params(self) -> dict:
        return {"family": self.family, "index": self.index, "scale": self.scale}


@dataclass(frozen=True)
class Gamma:
    """Gamma law with rate/shape parameterization.

    Survival function G(rate * x, shape) / Gamma(shape). Scalars evaluate
    through :mod:`retxdist.gammafn`; ndarrays go through scipy for speed
    (the sampler pushes 1e7 quantiles through this path).
    """

    rate: float
    shape: float
    family = "gamma"

    QUANTILE_TOL = 1e-10
    QUANTILE_MAX_ITER = 200

    def __post_init__(self) -> None:
        if not (self.rate > 0.0 and self.shape > 0.0):
            raise InvalidParameter(
                f"rate and shape must be positive, got {self.rate}, {self.shape}")

    def ccdf(self, x: ArrayLike) -> ArrayLike:
        if isinstance(x, np.ndarray):
            return special.gammaincc(self.shape, self.rate * np.asarray(x, dtype=float))
        return gammafn.regularized_upper_gamma(self.rate * x, self.shape)

    def log_ccdf(self, x: ArrayLike) -> ArrayLike:
        if isinstance(x, np.ndarray):
            with np.errstate(divide="ignore"):
                return np.log(special.gammaincc(self.shape, self.rate * x))
        return gammafn.log_regularized_upper_gamma(self.rate * x, self.shape)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        if isinstance(x, np.ndarray):
            return special.gammainc(self.shape, self.rate * np.asarray(x, dtype=float))
        if x <= 0.0:
            return 0.0
        return gammafn.regularized_lower_gamma(self.rate * x, self.shape)

    def quantile_ccdf(self, q: ArrayLike) -> ArrayLike:
        """x with Q(shape, rate*x) = q, to 1e-10 absolute tolerance in q.

        Scalar path: bracketed bisection refined by Newton steps on the
        in-house regularized survival function, capped at 200 iterations.
        """
        _check_q(q)
        if isinstance(q, np.ndarray):
            return special.gammainccinv(self.shape, q) / self.rate
        if q == 1.0:
            return 0.0
        lo, hi = 0.0, self.shape + 1.0
        while gammafn.regularized_upper_gamma(hi, self.shape) > q:
            hi *= 2.0
            if hi > 1e300:
                raise NonConvergence("gamma quantile bracket expansion failed")
        y = 0.5 * (lo + hi)
        log_norm = -gammafn.log_gamma(self.shape)
        for _ in range(self.QUANTILE_MAX_ITER):
            f = gammafn.regularized_upper_gamma(y, self.shape) - q
            if abs(f) <= self.QUANTILE_TOL:
                return y / self.rate
            if f > 0.0:
                lo = y
            else:
                hi = y
            # dQ/dy = -e^(-y) y^(shape-1) / Gamma(shape); Newton when usable.
            step_ok = False
            if y > 0.0:
                log_pdf = -y + (self.shape - 1.0) * math.log(y) + log_norm
                if log_pdf > -700.0:
                    y_new = y + f / math.exp(log_pdf)
                    if lo < y_new < hi:
                        y = y_new
                        step_ok = True
            if not step_ok:
                y = 0.5 * (lo + hi)
        raise NonConvergence(
            f"gamma quantile did not reach {self.QUANTILE_TOL} in "
            f"{self.QUANTILE_MAX_ITER} iterations (q={q})")

    def quantile_log_ccdf(self, log_q: ArrayLike) -> ArrayLike:
        """Survival quantile at exp(log_q), floored at the smallest subnormal."""
        return self.quantile_ccdf(np.maximum(np.exp(log_q), 5e-324))

    def sample(self, rng) -> float:
        return float(self.quantile_ccdf(rng.uniform()))

    def params(self) -> dict:
        return {"family": self.family, "rate": self.rate, "shape": self.shape}


def _check_q(q: ArrayLike) -> None:
    if isinstance(q, np.ndarray):
        if np.any(q <= 0.0) or np.any(q > 1.0):
            raise InvalidParameter("quantile argument must lie in (0, 1]")
    elif not 0.0 < q <= 1.0:
        raise InvalidParameter(f"quantile argument must lie in (0, 1], got {q}")


# ---------------------------------------------------------------------------
# Slowly varying functions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _laguerre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.laguerre.laggauss(order)


@dataclass(frozen=True)
class SlowVaryOne:
    """The trivial slowly varying function, ell == 1."""

    x_min: float = math.e
    kind = "one"

    def value(self, y: ArrayLike) -> ArrayLike:
        return np.ones_like(np.asarray(y, dtype=float)) if isinstance(y, np.ndarray) else 1.0

    def value_log(self, log_y: ArrayLike) -> ArrayLike:
        return np.ones_like(np.asarray(log_y, dtype=float)) \
            if isinstance(log_y, np.ndarray) else 1.0

    def params(self) -> dict:
        return {"kind": self.kind}


@dataclass(frozen=True)
class SlowVaryLogPower:
    """ell(y) = coeff * (log y)^exponent, clamped below x_min.

    The clamp keeps the function positive and finite near y = 1, where a
    pure log power is singular; x_min >= e guarantees log y >= 1 on the
    trusted domain.
    """

    coeff: float
    exponent: float
    x_min: float = math.e
    kind = "log_power"

    def __post_init__(self) -> None:
        if not self.coeff > 0.0:
            raise InvalidParameter(f"coeff must be positive, got {self.coeff}")
        if self.x_min < math.e:
            raise InvalidParameter(f"x_min must be >= e, got {self.x_min}")

    def value(self, y: ArrayLike) -> ArrayLike:
        return self.value_log(np.log(np.asarray(y, dtype=float))
                              if isinstance(y, np.ndarray) else math.log(max(y, 1e-300)))

    def value_log(self, log_y: ArrayLike) -> ArrayLike:
        floor = math.log(self.x_min)
        if isinstance(log_y, np.ndarray):
            return self.coeff * np.maximum(log_y, floor) ** self.exponent
        return self.coeff * max(log_y, floor) ** self.exponent

    def log_slope(self, log_y: np.ndarray) -> np.ndarray:
        """d log ell / d log y: exponent / log y above the clamp, 0 below."""
        floor = math.log(self.x_min)
        return np.where(log_y > floor, self.exponent / np.maximum(log_y, floor), 0.0)

    def params(self) -> dict:
        return {"kind": self.kind, "coeff": self.coeff,
                "exponent": self.exponent, "x_min": self.x_min}


@dataclass(frozen=True)
class SlowVaryGammaDoc:
    """Exact slowly varying part of a gamma document on an exponential channel.

    ell(y) = 1 / f(log(y) / channel_rate) with

        f(t) = doc_rate^(shape-1) / Gamma(shape)
               * int_0^inf e^(-z) (z / doc_rate + t)^(shape-1) dz.

    For integer shape the integral is a polynomial in t (shape 2 gives
    1 + doc_rate * t); otherwise it is evaluated by fixed-order
    Gauss-Laguerre, which is exact up to machine noise for these smooth
    integrands. Valid for y >= 1; x_min only records where the
    slow-variation property has been verified.
    """

    doc_rate: float
    shape: float
    channel_rate: float
    x_min: float = math.e
    laguerre_order: int = 80
    kind = "gamma_doc_exact"

    def __post_init__(self) -> None:
        if not (self.doc_rate > 0.0 and self.shape > 0.0 and self.channel_rate > 0.0):
            raise InvalidParameter("doc_rate, shape and channel_rate must be positive")

    def _f(self, t: ArrayLike, deriv: bool = False) -> ArrayLike:
        """f(t), or its derivative f'(t) when deriv is set."""
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        k = self.shape
        lam = self.doc_rate
        if float(k).is_integer() and k <= 40:
            m = int(k) - 1
            acc = np.zeros_like(t)
            for j in range(m + 1 - deriv):
                c = math.comb(m, j) * math.factorial(j) / lam ** j
                acc += (c * (m - j) if deriv else c) * t ** (m - j - deriv)
            return lam ** m / gammafn.gamma(k) * acc
        z, w = _laguerre_rule(self.laguerre_order)
        tt = np.atleast_1d(t).ravel()
        vals = (z[None, :] / lam + tt[:, None]) ** (k - 1.0 - deriv)
        out = lam ** (k - 1.0) / gammafn.gamma(k) * (vals @ w)
        if deriv:
            out *= k - 1.0
        return out.reshape(t.shape)

    def value(self, y: ArrayLike) -> ArrayLike:
        log_y = np.log(np.asarray(y, dtype=float)) if isinstance(y, np.ndarray) \
            else math.log(max(y, 1.0))
        return self.value_log(log_y)

    def value_log(self, log_y: ArrayLike) -> ArrayLike:
        out = 1.0 / self._f(np.asarray(log_y, dtype=float) / self.channel_rate)
        return out if isinstance(log_y, np.ndarray) else float(out)

    def log_slope(self, log_y: np.ndarray) -> np.ndarray:
        """d log ell / d log y = -f'(t) / (channel_rate f(t)), t = log y / channel_rate."""
        t = log_y / self.channel_rate
        return -self._f(t, deriv=True) / (self.channel_rate * self._f(t))

    def params(self) -> dict:
        return {"kind": self.kind, "doc_rate": self.doc_rate, "shape": self.shape,
                "channel_rate": self.channel_rate, "x_min": self.x_min}


SlowVary = Union[SlowVaryOne, SlowVaryLogPower, SlowVaryGammaDoc]


# ---------------------------------------------------------------------------
# Derived document law
# ---------------------------------------------------------------------------


def _derived_log_raw(alpha: float, ell: SlowVary, log_g: ArrayLike) -> ArrayLike:
    """h(s) = alpha * s - log ell(-s): the unclamped derived log survival at
    channel log survival s."""
    return alpha * log_g - np.log(ell.value_log(-log_g))


@dataclass(frozen=True)
class DerivedLaw:
    """Document law defined from the channel through the coupling relation.

    The raw survival function Gbar(x)^alpha / ell(1/Gbar(x)) is asymptotic
    and may exceed 1 near the origin; it is clamped to min(1, raw), and
    x_anchor records the first grid point where the raw expression drops
    below 1 (the clamp is inactive beyond it).

    The raw log survival depends on x only through s = log Gbar(x):
    h(s) = alpha * s - log ell(-s). The quantile solves h(s) = log q for
    s <= 0 and maps s back through the channel's log-survival quantile.
    With ell == 1 the root is log q / alpha in closed form; otherwise a
    vectorized Newton iteration starts there, stays inside a bracket that
    every evaluation narrows (bisecting when a step leaves it), and stops
    once its step in s is down to rounding noise. Where log q >= h(0) the
    law is at or below q already at x = 0, so the quantile is 0, as it is
    for q = 1.
    """

    channel: Union[Exponential, Weibull, Gamma]
    alpha: float
    ell: SlowVary
    x_anchor: float
    family = "derived"

    QUANTILE_STEP_TOL = 4.0 * np.finfo(float).eps
    QUANTILE_MAX_ITER = 100

    def log_ccdf(self, x: ArrayLike) -> ArrayLike:
        log_g = self.channel.log_ccdf(np.asarray(x, dtype=float)
                                      if isinstance(x, np.ndarray) else x)
        out = np.minimum(_derived_log_raw(self.alpha, self.ell,
                                          np.asarray(log_g, dtype=float)), 0.0)
        return out if isinstance(x, np.ndarray) else float(out)

    def ccdf(self, x: ArrayLike) -> ArrayLike:
        out = np.exp(self.log_ccdf(x))
        return out if isinstance(x, np.ndarray) else float(out)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        return 1.0 - self.ccdf(x)

    def quantile_ccdf(self, q: ArrayLike) -> ArrayLike:
        _check_q(q)
        scalar = not isinstance(q, np.ndarray)
        qa = np.atleast_1d(np.asarray(q, dtype=float))
        log_q = np.log(qa)
        if isinstance(self.ell, SlowVaryOne):
            s = log_q / self.alpha
        else:
            s = self._solve_log_survival(log_q)
        out = np.where(qa == 1.0, 0.0, self.channel.quantile_log_ccdf(s))
        return float(out[0]) if scalar else out

    def _solve_log_survival(self, log_q: np.ndarray) -> np.ndarray:
        """s <= 0 with h(s) = log_q, by bracketed Newton; 0 where log_q >= h(0).

        An iterate is accepted once the step that reached it is within the
        rounding noise of s, widened by 1/h'(s) where h' < 1: where h is
        flat (q near 1 under gamma_doc_exact) s is known no better than that.
        """
        s = np.zeros_like(log_q)
        h_at_zero = -math.log(self.ell.value_log(0.0))
        idx = np.flatnonzero(log_q < h_at_zero)
        target = log_q[idx]
        cur = target / self.alpha
        step = np.full_like(cur, np.inf)
        lo = np.full_like(cur, -np.inf)     # h(lo) < target <= h(hi)
        hi = np.zeros_like(cur)
        for _ in range(self.QUANTILE_MAX_ITER):
            h = _derived_log_raw(self.alpha, self.ell, cur)
            slope = self.alpha + self.ell.log_slope(-cur)
            noise = self.QUANTILE_STEP_TOL * (1.0 + np.abs(cur))
            with np.errstate(divide="ignore", invalid="ignore"):
                noise = np.where(slope > 0.0, noise / np.minimum(slope, 1.0), noise)
            done = step <= noise
            s[idx[done]] = cur[done]
            keep = ~done
            idx, target, cur, h, slope = idx[keep], target[keep], cur[keep], h[keep], slope[keep]
            if idx.size == 0:
                return s
            lo, hi = lo[keep], hi[keep]
            below = h < target
            lo = np.where(below, cur, lo)
            hi = np.where(below, hi, cur)
            with np.errstate(divide="ignore", invalid="ignore"):
                nxt = cur - (h - target) / slope
            # Outside the bracket: bisect it, or step down while unbounded below.
            stray = ~((nxt >= lo) & (nxt <= hi))
            nxt[stray] = np.where(np.isinf(lo), 2.0 * hi - 1.0, 0.5 * (lo + hi))[stray]
            step = np.abs(nxt - cur)
            cur = nxt
        raise NonConvergence(
            f"derived quantile: {idx.size} values still moving after "
            f"{self.QUANTILE_MAX_ITER} bracketed Newton steps "
            f"(log q from {target.min():.6g})")

    def sample(self, rng) -> float:
        return float(self.quantile_ccdf(rng.uniform()))

    def params(self) -> dict:
        return {"family": self.family, "alpha": self.alpha,
                "ell": self.ell.params(), "channel": self.channel.params()}


Law = Union[Exponential, Weibull, Gamma, DerivedLaw]


# ---------------------------------------------------------------------------
# Bounded documents and the coupled model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundedDoc:
    """Document size conditioned on [0, bound]; bound may be math.inf.

    P[L_b <= x] = F(x) / F(bound). An unbounded sentinel (bound = inf)
    makes the law identical to the base law.
    """

    base: Law
    bound: float
    cdf_at_bound: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.bound > 0.0:
            raise InvalidParameter(f"bound must be positive, got {self.bound}")
        f_b = 1.0 if math.isinf(self.bound) else float(self.base.cdf(self.bound))
        if f_b < 1e-300:
            raise DegenerateTruncation(
                f"P[L <= {self.bound}] = {f_b} leaves no mass below the bound")
        object.__setattr__(self, "cdf_at_bound", f_b)

    def ccdf(self, x: ArrayLike) -> ArrayLike:
        """Truncated survival function, 1 at 0 and 0 at the bound."""
        if math.isinf(self.bound):
            return self.base.ccdf(x)
        num = np.asarray(self.base.ccdf(x), dtype=float) - self.base.ccdf(self.bound)
        out = np.clip(num / self.cdf_at_bound, 0.0, 1.0)
        out = np.where(np.asarray(x) >= self.bound, 0.0, out)
        return out if isinstance(x, np.ndarray) else float(out)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        if math.isinf(self.bound):
            return self.base.cdf(x)
        out = np.clip(np.asarray(self.base.cdf(x), dtype=float) / self.cdf_at_bound,
                      0.0, 1.0)
        return out if isinstance(x, np.ndarray) else float(out)

    def quantile_from_uniform(self, u: ArrayLike) -> ArrayLike:
        """Inverse-transform map: u in (0, 1] to the truncated law.

        Evaluates the base quantile at u * F(bound), expressed through the
        survival quantile as quantile_ccdf(1 - u * F(bound)).
        """
        q = 1.0 - np.asarray(u, dtype=float) * self.cdf_at_bound
        if isinstance(u, np.ndarray):
            return self.base.quantile_ccdf(np.maximum(q, 5e-324))
        return float(self.base.quantile_ccdf(max(float(q), 5e-324)))

    def sample(self, rng) -> float:
        return float(self.quantile_from_uniform(rng.uniform()))

    def sample_vec(self, rng, size: int) -> np.ndarray:
        return self.quantile_from_uniform(rng.uniforms(size))

    def params(self) -> dict:
        out = dict(self.base.params())
        out["bound"] = self.bound
        return out


class CouplingMode(Enum):
    PARAMETRIC = "parametric"
    DERIVED = "derived"


@dataclass(frozen=True)
class CouplingReport:
    """Hazard-proportionality residuals over the validation grid."""

    max_residual: float
    grid: tuple[tuple[float, float], ...]   # (x, residual) pairs


@dataclass(frozen=True)
class CoupledModel:
    """Channel law plus bounded document tied by hazard proportionality."""

    channel: Law
    doc: BoundedDoc
    alpha: float
    ell: SlowVary
    mode: CouplingMode

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise InvalidParameter(f"alpha must be positive, got {self.alpha}")

    @property
    def bound(self) -> float:
        return self.doc.bound

    @classmethod
    def parametric(cls, channel: Law, doc_base: Law, alpha: float,
                   ell: SlowVary, bound: float) -> "CoupledModel":
        return cls(channel, BoundedDoc(doc_base, bound), alpha, ell,
                   CouplingMode.PARAMETRIC)

    def gbar_bound(self) -> float:
        """Channel survival probability at the document bound."""
        return 0.0 if math.isinf(self.bound) else float(self.channel.ccdf(self.bound))


def validate_coupling(m: CoupledModel) -> CouplingReport:
    """Residual grid for |Fbar * ell(1/Gbar) * Gbar^(-alpha) - 1|.

    Measured on 64 points from the first x with Gbar(x) <= 0.9 up to the
    bound; the relation is asymptotic and need not hold near the origin.
    Report-only: callers decide what tolerance to enforce.
    """
    if m.mode is not CouplingMode.PARAMETRIC:
        raise InvalidParameter("coupling validation applies to parametric models")
    x_start = float(m.channel.quantile_ccdf(0.9))
    x_end = m.bound if math.isfinite(m.bound) else float(m.channel.quantile_ccdf(1e-8))
    if x_end <= x_start:
        x_end = 2.0 * x_start
    xs = np.linspace(x_start, x_end, COUPLING_GRID_POINTS)
    log_g = np.asarray(m.channel.log_ccdf(xs), dtype=float)
    log_f = np.asarray(m.doc.base.log_ccdf(xs), dtype=float)
    log_term = log_f + np.log(m.ell.value_log(-log_g)) - m.alpha * log_g
    residuals = np.abs(np.expm1(log_term))
    return CouplingReport(float(residuals.max()),
                          tuple(zip(xs.tolist(), residuals.tolist())))


def derive_doc_law(channel: Law, alpha: float, ell: SlowVary,
                   bound: float) -> CoupledModel:
    """Build a coupled model whose document law comes from the relation.

    The raw survival function must be nonincreasing on a 256-point grid
    over [0, bound] (NotMonotone otherwise, which signals an ell too wild
    for the channel). The clamp anchor is recorded on the law.
    """
    if not alpha > 0.0:
        raise InvalidParameter(f"alpha must be positive, got {alpha}")
    if not bound > 0.0:
        raise InvalidParameter(f"bound must be positive, got {bound}")
    grid_hi = bound if math.isfinite(bound) else float(channel.quantile_ccdf(1e-12))
    xs = np.linspace(0.0, grid_hi, DERIVED_GRID_POINTS)
    log_g = np.asarray(channel.log_ccdf(xs), dtype=float)
    raw_log = _derived_log_raw(alpha, ell, log_g)
    if np.any(np.diff(raw_log) > 1e-12):
        raise NotMonotone(
            "derived survival function is not nonincreasing on the check grid")
    below = np.nonzero(raw_log <= 0.0)[0]
    if below.size == 0:
        raise DegenerateTruncation(
            "derived survival function exceeds 1 on the whole grid")
    law = DerivedLaw(channel, alpha, ell, x_anchor=float(xs[below[0]]))
    return CoupledModel(channel, BoundedDoc(law, bound), alpha, ell,
                        CouplingMode.DERIVED)


# ---------------------------------------------------------------------------
# Serialization (experiment config format)
# ---------------------------------------------------------------------------


def law_from_dict(spec: dict) -> Law:
    """Parametric law from {"family": ..., <named params>}."""
    try:
        family = spec["family"]
    except (KeyError, TypeError):
        raise InvalidParameter(f"law spec needs a 'family' key: {spec!r}") from None
    if family == "exponential":
        return Exponential(rate=float(spec["rate"]))
    if family == "weibull":
        return Weibull(index=float(spec["index"]), scale=float(spec["scale"]))
    if family == "gamma":
        return Gamma(rate=float(spec["rate"]), shape=float(spec["shape"]))
    raise InvalidParameter(f"unknown family {family!r}")


def ell_from_dict(spec: dict) -> SlowVary:
    """Slowly varying function from its config block."""
    kind = spec.get("kind", "one")
    if kind == "one":
        return SlowVaryOne()
    if kind == "log_power":
        return SlowVaryLogPower(coeff=float(spec["coeff"]),
                                exponent=float(spec["exponent"]),
                                x_min=float(spec.get("x_min", math.e)))
    if kind == "gamma_doc_exact":
        return SlowVaryGammaDoc(doc_rate=float(spec["doc_rate"]),
                                shape=float(spec["shape"]),
                                channel_rate=float(spec["channel_rate"]))
    raise InvalidParameter(f"unknown ell kind {kind!r}")
