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

Every law method takes an array (or a number) and returns the numpy
result of one vectorized body; a 0-d input comes back as an np.float64.
The gamma family evaluates through scipy.special, cross-checked against
the in-house incomplete Gamma in the tests. sampling_quantile gives Monte
Carlo a certified quantile table for bounded gamma documents.

Laws carry a family tag and slowly varying functions a kind tag, which
the config format (experiment.py) maps with their dataclass fields. All
classes are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

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

_log = logging.getLogger(__name__)

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
        return np.exp(-self.rate * np.asarray(x, dtype=float))

    def log_ccdf(self, x: ArrayLike) -> ArrayLike:
        return -self.rate * np.asarray(x, dtype=float)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        return -np.expm1(-self.rate * np.asarray(x, dtype=float))

    def quantile_ccdf(self, q: ArrayLike) -> ArrayLike:
        """x such that ccdf(x) = q, for q in (0, 1]."""
        return np.log(_check_q(q)) / -self.rate

    def quantile_log_ccdf(self, log_q: ArrayLike) -> ArrayLike:
        """x such that log ccdf(x) = log_q, for log_q <= 0."""
        return np.asarray(log_q, dtype=float) / -self.rate


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
        return np.exp(self.log_ccdf(x))

    def log_ccdf(self, x: ArrayLike) -> ArrayLike:
        return -np.power(np.asarray(x, dtype=float) / self.scale, self.index)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        return -np.expm1(self.log_ccdf(x))

    def quantile_ccdf(self, q: ArrayLike) -> ArrayLike:
        return self.scale * np.power(-np.log(_check_q(q)), 1.0 / self.index)

    def quantile_log_ccdf(self, log_q: ArrayLike) -> ArrayLike:
        return self.scale * np.power(-np.asarray(log_q, dtype=float), 1.0 / self.index)


@dataclass(frozen=True)
class Gamma:
    """Gamma law with rate/shape parameterization.

    Survival function G(rate * x, shape) / Gamma(shape), evaluated and
    inverted through scipy.special.
    """

    rate: float
    shape: float
    family = "gamma"

    def __post_init__(self) -> None:
        if not (self.rate > 0.0 and self.shape > 0.0):
            raise InvalidParameter(
                f"rate and shape must be positive, got {self.rate}, {self.shape}")

    def ccdf(self, x: ArrayLike) -> ArrayLike:
        return special.gammaincc(self.shape, self.rate * np.asarray(x, dtype=float))

    def log_ccdf(self, x: ArrayLike) -> ArrayLike:
        with np.errstate(divide="ignore"):
            return np.log(self.ccdf(x))

    def cdf(self, x: ArrayLike) -> ArrayLike:
        return special.gammainc(self.shape, self.rate * np.asarray(x, dtype=float))

    def quantile_ccdf(self, q: ArrayLike) -> ArrayLike:
        """x with Q(shape, rate*x) = q."""
        return special.gammainccinv(self.shape, _check_q(q)) / self.rate

    def quantile_log_ccdf(self, log_q: ArrayLike) -> ArrayLike:
        """Survival quantile at exp(log_q), floored at the smallest subnormal."""
        return self.quantile_ccdf(np.maximum(np.exp(log_q), 5e-324))


def _check_q(q: ArrayLike) -> np.ndarray:
    """q as a float array, after checking that every value lies in (0, 1]."""
    q = np.asarray(q, dtype=float)
    ok = (q > 0.0) & (q <= 1.0)
    if not ok.all():
        raise InvalidParameter(
            f"quantile argument must lie in (0, 1], got {q[~ok].flat[0]}")
    return q


# Certified quantile table of a bounded gamma document. Each part starts
# with _GAMMA_TABLE_PANELS panels and doubles them until every panel
# midpoint is within _GAMMA_TABLE_TOL relative of the reference inversion;
# a part that still misses at _GAMMA_TABLE_MAX_PANELS is not used.
_GAMMA_TABLE_PANELS = 64
_GAMMA_TABLE_MAX_PANELS = 1 << 14
_GAMMA_TABLE_TOL = 1e-12


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[0], b[0], a[1], ..., b[-1], a[-1] for len(a) = len(b) + 1."""
    out = np.empty(a.size + b.size)
    out[0::2] = a
    out[1::2] = b
    return out


def _certified_part(x_of_t, slope, t0: float, t1: float
                    ) -> tuple[np.ndarray, int, float]:
    """Cubic-Hermite panels of x(t) on [t0, t1]: (coefficients, panels, error).

    Row i holds c0..c3 of x = c0 + s (c1 + s (c2 + s c3)), s in [0, 1] across
    panel i. The error is the largest relative midpoint miss; the midpoints
    of one round become nodes of the next, so every reference inversion is
    made once.
    """
    n = _GAMMA_TABLE_PANELS
    t = np.linspace(t0, t1, n + 1)
    x = x_of_t(t)
    while True:
        d = slope(t, x) * ((t1 - t0) / n)
        dx = np.diff(x)
        c = np.stack([x[:-1], d[:-1], 3.0 * dx - 2.0 * d[:-1] - d[1:],
                      d[:-1] + d[1:] - 2.0 * dx], axis=1)
        t_mid = 0.5 * (t[:-1] + t[1:])
        x_mid = x_of_t(t_mid)
        approx = c[:, 0] + 0.5 * (c[:, 1] + 0.5 * (c[:, 2] + 0.5 * c[:, 3]))
        err = float(np.max(np.abs(approx - x_mid) / x_mid))
        if err <= _GAMMA_TABLE_TOL or n >= _GAMMA_TABLE_MAX_PANELS:
            return c, n, err
        t, x, n = _interleave(t, t_mid), _interleave(x, x_mid), 2 * n


class _GammaQuantileTable:
    """Quantile of a gamma law truncated to [0, bound], as a certified table.

    A uniform u in (0, 1] maps to the lower-tail probability p = u F(b) and
    the upper-tail probability q = (1 - u) F(b) + Fbar(b), which is 1 - p
    without its cancellation. Two uniform cubic-Hermite tables cover the
    range: x over t = p^(1/shape) for p <= 1/2, where x is smooth in t as
    p -> 0, and x over t = -log q above, smooth up to the bound. Each node
    holds x from scipy's gammaincinv (lower part) or gammainccinv (upper
    part) and the exact slope dx/dt from the gamma density. build returns
    None unless every panel midpoint of both parts is within
    _GAMMA_TABLE_TOL relative of the same reference.

    Calls take a 1-d array of uniforms and evaluate it in one pass; Monte
    Carlo hands it one block at a time, which keeps its temporaries in cache.
    """

    def __init__(self, doc: "BoundedDoc", t_lo: float, t_hi: float, parts: list) -> None:
        self.doc = doc
        self.inv_shape = 1.0 / doc.base.shape
        self.panels = tuple(n for _, n, _ in parts)
        self.max_error = max(err for _, _, err in parts)
        self.coeffs = np.concatenate([c for c, _, _ in parts])
        self.last = len(self.coeffs) - 1
        # Fractional panel index: t * lo_scale in the lower part, and
        # -log(q) * hi_scale + hi_offset = n_lo + (t - log 2) * hi_scale above.
        self.lo_scale = self.panels[0] / t_lo
        self.hi_scale = self.hi_offset = 0.0
        if len(parts) > 1:
            self.hi_scale = self.panels[1] / (t_hi - math.log(2.0))
            self.hi_offset = self.panels[0] - math.log(2.0) * self.hi_scale

    @classmethod
    def build(cls, doc: "BoundedDoc") -> Optional["_GammaQuantileTable"]:
        """The certified table of a bounded Gamma document, or None (logged
        at DEBUG) where there is none."""
        k, rate = doc.base.shape, doc.base.rate
        log_gamma_k = float(special.gammaln(k))
        log_gamma_k1 = float(special.gammaln(k + 1.0))

        def lower_x(t):
            return special.gammaincinv(k, np.power(t, k)) / rate

        def lower_slope(t, x):
            # dx/dt = k t^(k-1) / f(x) = Gamma(k+1) e^y (t/y)^(k-1) / rate, y = rate x
            y = rate * x
            d = np.exp(log_gamma_k1 + y + (k - 1.0) * np.log(t / y)) / rate
            return np.where(t == 0.0, math.exp(log_gamma_k1 / k) / rate, d)

        def upper_x(t):
            return special.gammainccinv(k, np.exp(-t)) / rate

        def upper_slope(t, x):
            # dx/dt = q / f(x) = Gamma(k) e^(y - t) y^(1-k) / rate
            y = rate * x
            return np.exp(log_gamma_k + y - t - (k - 1.0) * np.log(y)) / rate

        if not doc.ccdf_at_bound > 0.0:
            _log.debug("gamma quantile table: bound %g, 0 panels: Fbar(bound) = 0 "
                       "leaves -log q unbounded; using the exact quantile", doc.bound)
            return None
        t_lo = min(doc.cdf_at_bound, 0.5) ** (1.0 / k)
        t_hi = -math.log(doc.ccdf_at_bound)
        with np.errstate(all="ignore"):
            parts = [_certified_part(lower_x, lower_slope, 0.0, t_lo)]
            if doc.cdf_at_bound > 0.5:
                parts.append(_certified_part(upper_x, upper_slope, math.log(2.0), t_hi))
        table = cls(doc, t_lo, t_hi, parts)
        if not table.max_error <= _GAMMA_TABLE_TOL:
            _log.debug("gamma quantile table: bound %g, %s panels, midpoint error "
                       "%.3g above %g; using the exact quantile",
                       doc.bound, "+".join(map(str, table.panels)), table.max_error,
                       _GAMMA_TABLE_TOL)
            return None
        return table

    def __call__(self, u: np.ndarray) -> np.ndarray:
        p = u * self.doc.cdf_at_bound
        upper = p > 0.5
        pos = np.power(p, self.inv_shape, out=p)
        pos *= self.lo_scale
        q = 1.0 - u
        q *= self.doc.cdf_at_bound
        q += self.doc.ccdf_at_bound
        np.log(q, out=q)
        q *= -self.hi_scale
        q += self.hi_offset
        np.putmask(pos, upper, q)
        idx = pos.astype(np.intp)
        np.minimum(idx, self.last, out=idx)
        pos -= idx
        c = np.take(self.coeffs, idx, axis=0)
        x = c[:, 3] * pos
        x += c[:, 2]
        x *= pos
        x += c[:, 1]
        x *= pos
        x += c[:, 0]
        return x


# ---------------------------------------------------------------------------
# Slowly varying functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlowVaryOne:
    """The trivial slowly varying function, ell == 1."""

    kind = "one"

    def value_log(self, log_y: ArrayLike) -> ArrayLike:
        return np.ones_like(np.asarray(log_y, dtype=float))[()]


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

    def value_log(self, log_y: ArrayLike) -> ArrayLike:
        floor = math.log(self.x_min)
        return self.coeff * np.power(np.maximum(np.asarray(log_y, dtype=float), floor),
                                     self.exponent)

    def log_slope(self, log_y: ArrayLike) -> ArrayLike:
        """d log ell / d log y: exponent / log y above the clamp, 0 below."""
        log_y = np.asarray(log_y, dtype=float)
        floor = math.log(self.x_min)
        return np.where(log_y > floor, self.exponent / np.maximum(log_y, floor), 0.0)[()]


# Above this doc_rate * t the closed form e^(z) Q(shape, z) of a
# non-integer-shape SlowVaryGammaDoc overflows and underflows in turn.
_GAMMA_DOC_Z_MAX = 700.0


@dataclass(frozen=True)
class SlowVaryGammaDoc:
    """Exact slowly varying part of a gamma document on an exponential channel.

    ell(y) = 1 / f(log(y) / channel_rate) with

        f(t) = doc_rate^(shape-1) / Gamma(shape)
               * int_0^inf e^(-z) (z / doc_rate + t)^(shape-1) dz
             = e^(doc_rate t) Q(shape, doc_rate t),

    Q the regularized upper incomplete Gamma, so f(0) = 1 and ell(1) = 1.
    For integer shape f is a polynomial in t (shape 2 gives
    1 + doc_rate * t); otherwise the closed form is evaluated through
    scipy.special.gammaincc up to doc_rate * t = 700, and InvalidParameter
    is raised beyond. Valid for y >= 1.
    """

    doc_rate: float
    shape: float
    channel_rate: float
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
                acc += (c * (m - j) if deriv else c) * np.power(t, m - j - deriv)
            return lam ** m / gammafn.gamma(k) * acc
        z = lam * t
        if np.any(z > _GAMMA_DOC_Z_MAX):
            raise InvalidParameter(
                f"gamma_doc_exact ell with shape {k} is evaluated only up to "
                f"doc_rate * t = {_GAMMA_DOC_Z_MAX}, got {z.max():.6g}")
        f = np.exp(z) * special.gammaincc(k, z)
        if deriv:
            # d/dt Q(k, lam t) = -lam (lam t)^(k-1) e^(-lam t) / Gamma(k)
            return lam * f - lam ** k * np.power(t, k - 1.0) / gammafn.gamma(k)
        return f

    def value_log(self, log_y: ArrayLike) -> ArrayLike:
        return (1.0 / self._f(np.asarray(log_y, dtype=float) / self.channel_rate))[()]

    def log_slope(self, log_y: ArrayLike) -> ArrayLike:
        """d log ell / d log y = -f'(t) / (channel_rate f(t)), t = log y / channel_rate."""
        t = np.asarray(log_y, dtype=float) / self.channel_rate
        return (-self._f(t, deriv=True) / (self.channel_rate * self._f(t)))[()]


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
    every evaluation narrows (bisecting when a step leaves it or lands on
    one of its ends), and stops once h(s) is within rounding noise of
    log q. Where log q >= h(0) the law is at or below q already at x = 0,
    so the quantile is 0, as it is for q = 1.
    """

    channel: Union[Exponential, Weibull, Gamma]
    alpha: float
    ell: SlowVary
    x_anchor: float
    family = "derived"

    QUANTILE_RESIDUAL_TOL = 64.0 * np.finfo(float).eps
    QUANTILE_MAX_ITER = 100

    def log_ccdf(self, x: ArrayLike) -> ArrayLike:
        return np.minimum(_derived_log_raw(self.alpha, self.ell, self.channel.log_ccdf(x)), 0.0)

    def ccdf(self, x: ArrayLike) -> ArrayLike:
        return np.exp(self.log_ccdf(x))

    def cdf(self, x: ArrayLike) -> ArrayLike:
        return 1.0 - self.ccdf(x)

    def quantile_ccdf(self, q: ArrayLike) -> ArrayLike:
        q = _check_q(q)
        log_q = np.log(q)
        if isinstance(self.ell, SlowVaryOne):
            s = log_q / self.alpha
        else:
            s = self._solve_log_survival(log_q.ravel()).reshape(q.shape)
        return np.where(q == 1.0, 0.0, self.channel.quantile_log_ccdf(s))[()]

    def _solve_log_survival(self, log_q: np.ndarray) -> np.ndarray:
        """s <= 0 with h(s) = log_q, by bracketed Newton; 0 where log_q >= h(0).

        log_q = 0 never enters Newton: h(0) can round above 0 (ell(1) just
        below 1), and the iterate for q = 1 would then run away.

        An iterate is accepted once its residual |h(s) - log_q| is within
        QUANTILE_RESIDUAL_TOL (1 + |log_q|), so the law's survival there is
        q to that relative error however steep h is. Where h is too noisy
        for that, the iterate stops moving once the bracket has closed to
        adjacent doubles, and is accepted then.
        """
        s = np.zeros_like(log_q)
        h_at_zero = -math.log(self.ell.value_log(0.0))
        idx = np.flatnonzero((log_q < h_at_zero) & (log_q < 0.0))
        target = log_q[idx]
        tol = self.QUANTILE_RESIDUAL_TOL * (1.0 - target)
        cur = target / self.alpha
        step = np.full_like(cur, np.inf)
        lo = np.full_like(cur, -np.inf)     # h(lo) < target <= h(hi)
        hi = np.zeros_like(cur)
        # The active set shrinks only when an iterate is accepted; between
        # shrinks every update runs in place, in the arrays it replaces.
        for _ in range(self.QUANTILE_MAX_ITER):
            resid = _derived_log_raw(self.alpha, self.ell, cur)
            resid -= target
            done = (np.abs(resid) <= tol) | (step == 0.0)
            if done.any():
                s[idx[done]] = cur[done]
                keep = ~done
                idx, target, tol, cur, resid, lo, hi, step = (
                    a[keep] for a in (idx, target, tol, cur, resid, lo, hi, step))
            if idx.size == 0:
                return s
            below = resid < 0.0
            np.copyto(lo, cur, where=below)
            np.copyto(hi, cur, where=~below)
            with np.errstate(divide="ignore", invalid="ignore"):
                resid /= self.alpha + self.ell.log_slope(-cur)
            nxt = np.subtract(cur, resid, out=resid)
            # A step lands strictly inside the bracket, and above 2 hi - 1
            # while it is open below: a flat, noisy h can throw it far past
            # the root, or back and forth between the bracket's ends. Else
            # bisect, or step down to 2 hi - 1. A zero step is accepted.
            open_below = np.isinf(lo)
            floor = np.where(open_below, 2.0 * hi - 1.0, lo) if open_below.any() else lo
            stray = ~((nxt > floor) & (nxt < hi) | (nxt == cur))
            lo_s, hi_s, floor_s = lo[stray], hi[stray], floor[stray]
            nxt[stray] = np.where(np.isinf(lo_s), floor_s, 0.5 * (lo_s + hi_s))
            np.abs(np.subtract(nxt, cur, out=step), out=step)
            cur = nxt
        raise NonConvergence(
            f"derived quantile: {idx.size} values still moving after "
            f"{self.QUANTILE_MAX_ITER} bracketed Newton steps "
            f"(log q from {target.min():.6g})")


Law = Union[Exponential, Weibull, Gamma, DerivedLaw]


# ---------------------------------------------------------------------------
# Bounded documents and the coupled model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundedDoc:
    """Document size conditioned on [0, bound]; bound may be math.inf.

    P[L_b <= x] = F(x) / F(bound). cdf_at_bound is F(bound) and
    ccdf_at_bound is Fbar(bound), each evaluated once here; an unbounded
    sentinel (bound = inf) has F(bound) = 1 and Fbar(bound) = 0, which
    makes the law identical to the base law.
    """

    base: Law
    bound: float
    cdf_at_bound: float = field(init=False)
    ccdf_at_bound: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.bound > 0.0:
            raise InvalidParameter(f"bound must be positive, got {self.bound}")
        if math.isinf(self.bound):
            f_b, fbar_b = 1.0, 0.0
        else:
            f_b, fbar_b = float(self.base.cdf(self.bound)), float(self.base.ccdf(self.bound))
        if f_b < 1e-300:
            raise DegenerateTruncation(
                f"P[L <= {self.bound}] = {f_b} leaves no mass below the bound")
        object.__setattr__(self, "cdf_at_bound", f_b)
        object.__setattr__(self, "ccdf_at_bound", fbar_b)

    def ccdf(self, x: ArrayLike) -> ArrayLike:
        """Truncated survival function, 1 at 0 and 0 at the bound; taken as
        (F(b) - F(x)) / F(b) where F(b) <= 1/2, as Fbar(x) - Fbar(b) cancels."""
        x = np.asarray(x, dtype=float)
        if self.cdf_at_bound <= 0.5:
            num = self.cdf_at_bound - self.base.cdf(x)
        else:
            num = self.base.ccdf(x) - self.ccdf_at_bound
        out = np.clip(num / self.cdf_at_bound, 0.0, 1.0)
        return np.where(x >= self.bound, 0.0, out)[()]

    def cdf(self, x: ArrayLike) -> ArrayLike:
        return np.clip(self.base.cdf(x) / self.cdf_at_bound, 0.0, 1.0)

    def quantile_from_uniform(self, u: ArrayLike) -> ArrayLike:
        """Inverse-transform map: u in (0, 1] to the truncated law.

        Evaluates the base quantile at u * F(bound), expressed through the
        survival quantile as quantile_ccdf(1 - u * F(bound)).
        """
        q = 1.0 - np.asarray(u, dtype=float) * self.cdf_at_bound
        return self.base.quantile_ccdf(np.maximum(q, 5e-324))


def sampling_quantile(doc: BoundedDoc) -> Callable[[np.ndarray], np.ndarray]:
    """The map from a 1-d array of uniforms to document sizes that Monte
    Carlo draws through.

    A bounded Gamma document gets a certified _GammaQuantileTable (built
    anew on each call, in about 10 ms); every other document, and a gamma
    document whose table does not certify, gets doc.quantile_from_uniform.
    """
    if isinstance(doc.base, Gamma):
        table = _GammaQuantileTable.build(doc)
        if table is not None:
            return table
    return doc.quantile_from_uniform


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
    """Channel law plus bounded document tied by hazard proportionality.

    gbar_bound is the channel survival Gbar(bound), evaluated once here;
    0 for an unbounded document.
    """

    channel: Law
    doc: BoundedDoc
    alpha: float
    ell: SlowVary
    gbar_bound: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise InvalidParameter(f"alpha must be positive, got {self.alpha}")
        object.__setattr__(self, "gbar_bound", 0.0 if math.isinf(self.bound)
                           else float(self.channel.ccdf(self.bound)))

    @property
    def bound(self) -> float:
        return self.doc.bound

    @property
    def mode(self) -> CouplingMode:
        """DERIVED exactly when the document law is a DerivedLaw."""
        return (CouplingMode.DERIVED if isinstance(self.doc.base, DerivedLaw)
                else CouplingMode.PARAMETRIC)

    @classmethod
    def parametric(cls, channel: Law, doc_base: Law, alpha: float,
                   ell: SlowVary, bound: float) -> "CoupledModel":
        return cls(channel, BoundedDoc(doc_base, bound), alpha, ell)


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
    return CoupledModel(channel, BoundedDoc(law, bound), alpha, ell)

