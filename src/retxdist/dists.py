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
Every law inverts its survival at a log level (quantile_log_ccdf), and a
bounded document draws through it at log q = log1p(-u F(bound)), capped
at the bound. The gamma family evaluates and inverts through
scipy.special, cross-checked against the in-house incomplete Gamma in the
tests. sampling_quantiles gives Monte Carlo one certified quantile table
(_QuantileTable) per numerically inverted law, gamma or derived with
ell != 1, which every bounded document of that law draws through.

Laws carry a family tag and slowly varying functions a kind tag, which
the config format (experiment.py) maps with their dataclass fields. All
classes are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import copy
import importlib
import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import gammafn
from .errors import (
    DegenerateTruncation,
    InvalidParameter,
    NonConvergence,
    NotMonotone,
)

ArrayLike = Union[float, np.ndarray]

_log = logging.getLogger(__name__)


class LazyModule:
    """A module's stand-in under a name in another module's namespace.

    The first attribute read imports the module and rebinds the name to
    it, so later reads are a plain global lookup. Importing scipy.special
    is a large part of the package's import time and memory, and only
    gamma laws use it: the Gamma family, and gamma_doc_exact ell off its
    integer-shape series.
    """

    def __init__(self, namespace: dict, name: str, module: str):
        self._namespace, self._name, self._module = namespace, name, module

    def __getattr__(self, attr: str):
        module = importlib.import_module(self._module)
        self._namespace[self._name] = module
        return getattr(module, attr)


# scipy.special, imported at its first use: gamma laws are its only users
special = LazyModule(globals(), "special", "scipy.special")

# Grid sizes fixed by the model-validation contracts.
COUPLING_GRID_POINTS = 64
DERIVED_GRID_POINTS = 256
# The least positive double: the floor of every survival level a quantile takes.
_Q_FLOOR = 5e-324


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
        return np.exp(self.log_ccdf(x))

    def log_ccdf(self, x: ArrayLike) -> ArrayLike:
        return -self.rate * np.asarray(x, dtype=float)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        return -np.expm1(self.log_ccdf(x))

    def quantile_ccdf(self, q: ArrayLike) -> ArrayLike:
        return self.quantile_log_ccdf(np.log(_check_q(q)))

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
        return self.quantile_log_ccdf(np.log(_check_q(q)))

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
        return self.quantile_log_ccdf(np.log(_check_q(q)))

    def quantile_log_ccdf(self, log_q: ArrayLike) -> ArrayLike:
        """x with log Q(shape, rate*x) = log_q: gammaincinv at p = -expm1(log_q)
        where log_q > log 1/2, which keeps every digit of a small p, and
        gammainccinv at exp(log_q), floored at the smallest subnormal, below."""
        log_q = np.asarray(log_q, dtype=float)
        lower = log_q > -math.log(2.0)
        x = np.empty_like(log_q)
        x[lower] = special.gammaincinv(self.shape, -np.expm1(log_q[lower]))
        q = np.maximum(np.exp(log_q[~lower]), _Q_FLOOR)
        x[~lower] = special.gammainccinv(self.shape, q)
        return x / self.rate


def _check_q(q: ArrayLike) -> np.ndarray:
    """q as a float array, after checking that every value lies in (0, 1]."""
    q = np.asarray(q, dtype=float)
    ok = (q > 0.0) & (q <= 1.0)
    if not ok.all():
        raise InvalidParameter(
            f"quantile argument must lie in (0, 1], got {q[~ok].flat[0]}")
    return q


# Each part of a certified quantile table starts with _TABLE_PANELS panels
# and doubles them until every panel midpoint is within _TABLE_TOL relative
# of the reference inversion; a table with a part that still misses at
# _TABLE_MAX_PANELS is not used.
_TABLE_PANELS = 64
_TABLE_MAX_PANELS = 1 << 14
_TABLE_TOL = 1e-12


def _certified_part(value, slope, t0: float, t1: float, x_of=lambda y: y
                    ) -> tuple[np.ndarray, int, float]:
    """Cubic-Hermite panels of y(t) on [t0, t1]: (coefficients, panels, error).

    value(t, guess) is the reference y at nodes t; guess is None at the
    first nodes and the table's own value at later ones, a start for an
    iterative reference. slope(t, y) is dy/dt. Row i holds c0..c3 of
    y = c0 + f (c1 + f (c2 + f c3)), f in [0, 1] across panel i. The error
    is the largest midpoint miss relative to |x|, x = x_of(y) (y itself by
    default); the midpoints of one round become nodes of the next, so every
    reference value is made once. A table value or an error that is not
    finite ends the doubling: it comes from a node, and the nodes stay.
    """
    n = _TABLE_PANELS
    t = np.linspace(t0, t1, n + 1)
    y = value(t, None)
    while True:
        d = slope(t, y) * ((t1 - t0) / n)
        dy = np.diff(y)
        c = np.stack([y[:-1], d[:-1], 3.0 * dy - 2.0 * d[:-1] - d[1:],
                      d[:-1] + d[1:] - 2.0 * dy], axis=1)
        t_mid = 0.5 * (t[:-1] + t[1:])
        approx = c[:, 0] + 0.5 * (c[:, 1] + 0.5 * (c[:, 2] + 0.5 * c[:, 3]))
        if not np.isfinite(approx).all():
            return c, n, math.inf
        y_mid = value(t_mid, approx)
        x_mid = x_of(y_mid)
        err = float(np.max(np.abs(x_of(approx) - x_mid) / np.abs(x_mid)))
        if err <= _TABLE_TOL or n >= _TABLE_MAX_PANELS or not math.isfinite(err):
            return c, n, err
        after = np.arange(1, n + 1)
        t, y, n = np.insert(t, after, t_mid), np.insert(y, after, y_mid), 2 * n


def _tabulated(law: Law) -> bool:
    """Whether Monte Carlo draws law's bounded documents through a table:
    gamma laws, and derived laws with ell != 1 (whose root is not closed)."""
    return isinstance(law, Gamma) or (isinstance(law, DerivedLaw)
                                      and not isinstance(law.ell, SlowVaryOne))


class _QuantileTable:
    """Quantile of a gamma or derived law truncated to a bound, as a
    certified table of the law.

    A uniform u in (0, 1] maps to the lower-tail probability p = u F(b) and
    the upper-tail probability q = (1 - u) F(b) + Fbar(b), which is 1 - p
    without its cancellation; above p = 1/2 the table reads t = -log q.
    Uniform cubic-Hermite parts cover the law whatever the bound, up to the
    largest -log Fbar(b) of the documents the table is built for. build
    returns None unless every panel midpoint of every part is within
    _TABLE_TOL relative of the law's reference inversion.

    A gamma law has two parts, with nodes from scipy's gammaincinv (lower)
    and gammainccinv (upper) and exact slopes from the gamma density. Below
    p = 1/2 the lower part holds the ratio z = x / t over t = p^(1/shape):
    z tends to Gamma(shape + 1)^(1/shape) / rate as p -> 0, so its relative
    error is that of x down to x = 0. Above, the upper part holds x over
    t = -log q, from log 2 up.

    A derived law holds s = log Gbar(x) over t = -log q for every p, taken
    as -log1p(-p) below p = 1/2, so a small p keeps its digits; x is the
    channel's quantile_log_ccdf(s), certified relative in x. Nodes come
    from the law's Newton root of h(s) = -t, and the slopes ds/dt =
    -1 / h'(s), h'(s) = alpha + ell.log_slope(-s). The table
    starts at t0 = max(0, -h(0)), below which the quantile is 0 (at t0 = 0
    its node is the root's limit as q -> 1, which draws, all with q < 1,
    approach). A log_power ell's clamp kinks h, so the parts split there;
    each part takes the slope of its own side of the kink.

    A document enters only through its F(b), Fbar(b) and bound, which
    for_doc sets on a copy that shares the panels. Either table's value is
    capped at the bound, which a value certified only to _TABLE_TOL could
    pass at u = 1. Lower gamma panel i stores x = (i + f) z(f) / lo_scale
    as one quartic in the panel fraction f, and every other panel its
    cubic, with a zero fifth coefficient in a gamma table, so a call is one
    Horner pass over one fractional panel index. Calls take a 1-d array of
    uniforms; Monte Carlo hands them one block at a time, which keeps the
    temporaries in cache.
    """

    def __init__(self, law: Law, knots: list, parts: list) -> None:
        """parts as _certified_part returns them; knots, the ends of the
        parts over t = -log q (a gamma table's upper part only)."""
        self.panels = tuple(n for _, n, _ in parts)
        self.max_error = max(err for _, _, err in parts)
        self.bound = self.cdf_at_bound = self.ccdf_at_bound = math.nan
        self.channel = law.channel if isinstance(law, DerivedLaw) else None
        rows = [c for c, _, _ in parts]
        if self.channel is not None:
            # Fractional panel index: the sum over part starts t_j of
            # max(t - t_j, 0) steps_j, steps_j the change there of the panels
            # per unit t. It is measured from each start, so a small t keeps
            # its digits, and it is 0 below the table.
            self.knots = knots
            self.steps = np.diff(np.divide(self.panels, np.diff(knots)), prepend=0.0).tolist()
        else:
            self.inv_shape = 1.0 / law.shape
            # Fractional panel index: t * lo_scale in the lower part, and
            # -log(q) * hi_scale + hi_offset = n_lo + (t - log 2) * hi_scale above.
            self.lo_scale = self.panels[0] / 0.5 ** self.inv_shape
            self.hi_scale = self.hi_offset = 0.0
            # x = t z = (i + f) (c0 + f (c1 + f (c2 + f c3))) / lo_scale on lower panel i
            c = rows[0] / self.lo_scale
            zero = np.zeros((len(c), 1))
            rows[0] = np.arange(len(c))[:, None] * np.hstack([c, zero]) + np.hstack([zero, c])
            if len(parts) > 1:
                self.hi_scale = self.panels[1] / (knots[1] - knots[0])
                self.hi_offset = self.panels[0] - knots[0] * self.hi_scale
                rows[1] = np.hstack([rows[1], np.zeros((self.panels[1], 1))])
        # coeffs[j] holds coefficient j of every panel, so a call gathers one
        # contiguous row at a time, into a block-sized buffer
        self.coeffs = np.ascontiguousarray(np.concatenate(rows).T)
        self.last = self.coeffs.shape[1] - 1

    @classmethod
    def build(cls, law: Law, docs: Sequence["BoundedDoc"]) -> Optional["_QuantileTable"]:
        """The certified table of law for its bounded documents docs, each
        with Fbar(bound) > 0, or None (logged at DEBUG) where there is none.

        A derived law whose Newton root fails at a node has none either: its
        exact quantile then raises for the draws that reach that root.
        """
        where = f"quantile table: {law} up to bound {max(d.bound for d in docs):g}"
        if isinstance(law, DerivedLaw):
            t_hi = max(-math.log(d.ccdf_at_bound) for d in docs)
            try:
                knots, parts = _derived_parts(law, t_hi)
            except (NonConvergence, InvalidParameter) as exc:
                _log.debug("%s: %s; using the exact quantile", where, exc)
                return None
        else:
            t_hi = max((-math.log(d.ccdf_at_bound) for d in docs if d.cdf_at_bound > 0.5),
                       default=None)
            knots, parts = _gamma_parts(law, t_hi)
        error = max(err for _, _, err in parts)
        if not error <= _TABLE_TOL:
            _log.debug("%s, %s panels, midpoint error %.3g above %g; using the exact "
                       "quantile", where, "+".join(str(n) for _, n, _ in parts),
                       error, _TABLE_TOL)
            return None
        return cls(law, knots, parts)

    def for_doc(self, doc: "BoundedDoc") -> "_QuantileTable":
        """This table drawing doc's sizes: a copy that shares the panels."""
        table = copy.copy(self)
        table.bound = doc.bound
        table.cdf_at_bound, table.ccdf_at_bound = doc.cdf_at_bound, doc.ccdf_at_bound
        return table

    def __call__(self, u: np.ndarray) -> np.ndarray:
        # each step's temporaries go when it returns, so fewer block-sized
        # arrays are live at once and malloc does not trim the heap per block
        y = self._horner(self._position(u))
        x = y if self.channel is None else self.channel.quantile_log_ccdf(y)
        return np.minimum(x, self.bound, out=x)

    def _position(self, u: np.ndarray) -> np.ndarray:
        """The fractional panel index of each uniform."""
        p = u * self.cdf_at_bound
        q = 1.0 - u
        q *= self.cdf_at_bound
        q += self.ccdf_at_bound
        if self.channel is None:
            upper = p > 0.5
            np.log(q, out=q)
            pos = np.power(p, self.inv_shape, out=p)
            pos *= self.lo_scale
            q *= -self.hi_scale
            q += self.hi_offset
            np.putmask(pos, upper, q)
            return pos
        # -t = log1p(-p) up to p = 1/2 and log q above, with no mask: capped at
        # 1/2, the other side's term is log(1/2) + log 2 or log1p(-1/2), both
        # exactly -log 2
        np.minimum(p, 0.5, out=p)
        np.minimum(q, 0.5, out=q)
        t = np.log1p(np.negative(p, out=p), out=p)
        np.log(q, out=q)
        q += math.log(2.0)
        t += q
        np.negative(t, out=t)
        pos = np.zeros_like(t)
        for start, step in zip(self.knots[:-1], self.steps):
            term = np.subtract(t, start, out=q)
            np.maximum(term, 0.0, out=term)
            term *= step
            pos += term
        return pos

    def _horner(self, pos: np.ndarray) -> np.ndarray:
        """The tabulated value at fractional panel indices pos, in place over pos."""
        idx = pos.astype(np.intp)
        np.minimum(idx, self.last, out=idx)
        pos -= idx
        y = np.take(self.coeffs[-1], idx)
        y *= pos
        c = np.empty_like(y)
        for row in self.coeffs[-2:0:-1]:
            y += np.take(row, idx, out=c)
            y *= pos
        y += np.take(self.coeffs[0], idx, out=c)
        return y


def _gamma_parts(law: Gamma, t_hi: Optional[float]) -> tuple[list, list]:
    """(knots, parts) of a gamma law's table: the lower part over
    p^(1/shape) up to p = 1/2 and, where t_hi is given, the upper part over
    t = -log q between the knots log 2 and t_hi."""
    k, rate = law.shape, law.rate
    log_gamma_k, log_gamma_k1 = math.lgamma(k), math.lgamma(k + 1.0)
    z0 = math.exp(log_gamma_k1 / k) / rate

    def lower_z(t, guess):
        x = special.gammaincinv(k, np.power(t, k)) / rate
        return np.where(t == 0.0, z0, x / t)

    def lower_slope(t, z):
        # dz/dt = (dx/dt - z) / t with dx/dt = Gamma(k+1) e^y (rate z)^(1-k) / rate,
        # y = rate x = rate t z; z0^2 rate / (k + 1) at t = 0
        dx = np.exp(log_gamma_k1 + rate * t * z + (1.0 - k) * np.log(rate * z)) / rate
        return np.where(t == 0.0, z0 * z0 * rate / (k + 1.0), (dx - z) / t)

    def upper_x(t, guess):
        return law.quantile_log_ccdf(-t)

    def upper_slope(t, x):
        # dx/dt = q / f(x) = Gamma(k) e^(y - t) y^(1-k) / rate
        y = rate * x
        return np.exp(log_gamma_k + y - t - (k - 1.0) * np.log(y)) / rate

    knots = [] if t_hi is None else [math.log(2.0), t_hi]
    with np.errstate(all="ignore"):
        parts = [_certified_part(lower_z, lower_slope, 0.0, 0.5 ** (1.0 / k))]
        if knots:
            parts.append(_certified_part(upper_x, upper_slope, *knots))
    return knots, parts


def _derived_parts(law: DerivedLaw, t_hi: float) -> tuple[list, list]:
    """(knots, parts) of a derived law's table: s over t = -log q between
    the knots t0 = max(0, -h(0)), a log_power ell's clamp kink, and t_hi."""
    alpha, ell = law.alpha, law.ell
    knots = [max(0.0, -float(_derived_log_raw(alpha, ell, 0.0))), t_hi]
    # log y = -s stays on one side of the kink in each part
    sides = [(0.0, math.inf)]
    if isinstance(ell, SlowVaryLogPower):
        y_k = math.log(ell.x_min)
        t_k = -float(_derived_log_raw(alpha, ell, -y_k))
        if knots[0] < t_k < t_hi:
            knots.insert(1, t_k)
            sides = [(0.0, y_k), (math.nextafter(y_k, math.inf), math.inf)]

    def part(y_lo, y_hi, t0, t1):
        def slope(t, s):
            return -1.0 / (alpha + ell.log_slope(np.clip(-s, y_lo, y_hi)))

        def s_of_t(t, guess):
            # Newton starts one step past the table's own value, so a value
            # within Newton's residual tolerance is still measured by that step
            if guess is not None:
                guess = guess + (_derived_log_raw(alpha, ell, guess) + t) * slope(t, guess)
            # a draw has q < 1, so t = 0 stands for its limit q -> 1, not for
            # q = 1, which the solver maps to 0 (they differ where h(0) > 0)
            return law._solve_log_survival(np.minimum(-t, -_Q_FLOOR), guess)

        return _certified_part(s_of_t, slope, t0, t1, law.channel.quantile_log_ccdf)

    with np.errstate(all="ignore"):
        parts = [part(*side, t0, t1) for side, t0, t1 in zip(sides, knots, knots[1:])]
    return knots, parts


# ---------------------------------------------------------------------------
# Slowly varying functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlowVaryOne:
    """The trivial slowly varying function, ell == 1."""

    kind = "one"

    def log_value(self, log_y: ArrayLike) -> ArrayLike:
        return np.zeros_like(np.asarray(log_y, dtype=float))[()]

    def log_slope(self, log_y: ArrayLike) -> ArrayLike:
        """0, as log ell is."""
        return self.log_value(log_y)


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

    def log_value(self, log_y: ArrayLike) -> ArrayLike:
        floor = math.log(self.x_min)
        return math.log(self.coeff) + self.exponent * np.log(
            np.maximum(np.asarray(log_y, dtype=float), floor))

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
             = e^z Q(shape, z),   z = doc_rate * t,

    Q the regularized upper incomplete Gamma, so f(0) = 1 and ell(1) = 1.
    For integer shape f is the exponential series truncated after
    z^(shape-1) / (shape-1)! (shape 2 gives 1 + z), at every z; otherwise
    the closed form is evaluated through scipy.special.gammaincc up to
    z = 700, and InvalidParameter is raised beyond. Valid for y >= 1.
    """

    doc_rate: float
    shape: float
    channel_rate: float
    kind = "gamma_doc_exact"

    def __post_init__(self) -> None:
        if not (self.doc_rate > 0.0 and self.shape > 0.0 and self.channel_rate > 0.0):
            raise InvalidParameter("doc_rate, shape and channel_rate must be positive")

    def _z_and_f(self, log_y: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
        """z = doc_rate * t, clamped at 0, and f there."""
        z = self.doc_rate * np.maximum(np.asarray(log_y, dtype=float) / self.channel_rate, 0.0)
        k = self.shape
        if float(k).is_integer() and k <= 40:
            term = f = np.ones_like(z)
            for i in range(1, int(k)):
                term = term * z / i
                f = f + term
            return z, f
        if np.any(z > _GAMMA_DOC_Z_MAX):
            raise InvalidParameter(
                f"gamma_doc_exact ell with shape {k} is evaluated only up to "
                f"doc_rate * t = {_GAMMA_DOC_Z_MAX}, got {np.max(z):.6g}")
        return z, np.exp(z) * special.gammaincc(k, z)

    def log_value(self, log_y: ArrayLike) -> ArrayLike:
        return -np.log(self._z_and_f(log_y)[1])[()]

    def log_slope(self, log_y: ArrayLike) -> ArrayLike:
        """d log ell / d log y = -f'(t) / (channel_rate f(t))
        = -(doc_rate / channel_rate) (1 - z^(shape-1) / (Gamma(shape) f))."""
        z, f = self._z_and_f(log_y)
        k = self.shape
        return (-(self.doc_rate / self.channel_rate)
                * (1.0 - np.power(z, k - 1.0) / (gammafn.gamma(k) * f)))[()]


SlowVary = Union[SlowVaryOne, SlowVaryLogPower, SlowVaryGammaDoc]


# ---------------------------------------------------------------------------
# Derived document law
# ---------------------------------------------------------------------------


def _derived_log_raw(alpha: float, ell: SlowVary, log_g: ArrayLike) -> ArrayLike:
    """h(s) = alpha * s - log ell(-s): the unclamped derived log survival at
    channel log survival s."""
    return alpha * log_g - ell.log_value(-log_g)


@dataclass(frozen=True)
class DerivedLaw:
    """Document law defined from the channel through the coupling relation.

    The raw survival function Gbar(x)^alpha / ell(1/Gbar(x)) is asymptotic
    and may exceed 1 near the origin; it is clamped to min(1, raw).

    The raw log survival depends on x only through s = log Gbar(x):
    h(s) = alpha * s - log ell(-s). The quantile solves h(s) = log q for
    s <= 0 and maps s back through the channel's log-survival quantile.
    With ell == 1 the root is log q / alpha in closed form; otherwise a
    vectorized Newton iteration starts there, stays inside a bracket that
    every evaluation narrows (bisecting when a step leaves it or lands on
    one of its ends), and stops once h(s) is within rounding noise of
    log q. Where log q >= h(0) the law is at or below q already at x = 0,
    so the quantile is 0, as it is for q = 1. Monte Carlo draws bounded
    documents of a law with ell != 1 through its certified table of s
    (_QuantileTable), whose nodes are these Newton roots.
    """

    channel: Union[Exponential, Weibull, Gamma]
    alpha: float
    ell: SlowVary
    family = "derived"

    QUANTILE_RESIDUAL_TOL = 64.0 * np.finfo(float).eps
    QUANTILE_MAX_ITER = 100

    def log_ccdf(self, x: ArrayLike) -> ArrayLike:
        return np.minimum(_derived_log_raw(self.alpha, self.ell, self.channel.log_ccdf(x)), 0.0)

    def ccdf(self, x: ArrayLike) -> ArrayLike:
        return np.exp(self.log_ccdf(x))

    def cdf(self, x: ArrayLike) -> ArrayLike:
        return -np.expm1(self.log_ccdf(x))

    def quantile_ccdf(self, q: ArrayLike) -> ArrayLike:
        return self.quantile_log_ccdf(np.log(_check_q(q)))

    def quantile_log_ccdf(self, log_q: ArrayLike) -> ArrayLike:
        log_q = np.asarray(log_q, dtype=float)
        if isinstance(self.ell, SlowVaryOne):
            s = log_q / self.alpha
        else:
            s = self._solve_log_survival(log_q.ravel()).reshape(log_q.shape)
        return self.channel.quantile_log_ccdf(s)

    def _solve_log_survival(self, log_q: np.ndarray,
                            start: Optional[np.ndarray] = None) -> np.ndarray:
        """s <= 0 with h(s) = log_q, by bracketed Newton; 0 where log_q >= h(0).

        Newton starts at log_q / alpha, the root for ell == 1, or at start
        (capped at 0), a guess of the same shape as log_q. log_q = 0 never
        enters Newton: h(0) can round above 0 (ell(1) just below 1), and the
        iterate for q = 1 would then run away.

        An iterate is accepted once its residual |h(s) - log_q| is within
        QUANTILE_RESIDUAL_TOL (1 + |log_q|), so the law's survival there is
        q to that relative error however steep h is. Where h is too noisy
        for that, the iterate stops moving once the bracket has closed to
        adjacent doubles, and is accepted then.
        """
        s = np.zeros_like(log_q)
        h_at_zero = _derived_log_raw(self.alpha, self.ell, 0.0)
        idx = np.flatnonzero((log_q < h_at_zero) & (log_q < 0.0))
        target = log_q[idx]
        tol = self.QUANTILE_RESIDUAL_TOL * (1.0 - target)
        cur = target / self.alpha if start is None else np.minimum(start[idx], 0.0)
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

        The base law's log-survival quantile at log1p(-u * F(bound)), which
        keeps every digit of a small u, floored at log(5e-324) for the -inf
        that an unbounded document gives at u = 1, and capped at the bound:
        where F(bound) rounds to 1, that floor stands in for log Fbar(bound)
        and the quantile lands past the bound.
        """
        with np.errstate(divide="ignore"):
            log_q = np.log1p(np.asarray(u, dtype=float) * -self.cdf_at_bound)
        x = np.asarray(self.base.quantile_log_ccdf(np.maximum(log_q, math.log(_Q_FLOOR))))
        return np.minimum(x, self.bound, out=x)[()]


def sampling_quantiles(docs: Sequence[BoundedDoc]
                       ) -> list[Callable[[np.ndarray], np.ndarray]]:
    """Per document, the map from a 1-d array of uniforms to sizes that
    Monte Carlo draws through: one rule, the law's certified table if it
    has one, else the exact quantile.

    The bounded documents of one gamma law, or of one derived law with
    ell != 1, share one certified _QuantileTable, built here for them all
    (about 5 ms for example4's three bounds) and kept by nothing else.
    Every other document (exponential, Weibull, and derived with ell == 1,
    whose root is closed), a document with Fbar(bound) = 0 (an unbounded
    one among them), and the documents of a law whose table does not
    certify get doc.quantile_from_uniform.
    """
    out = [doc.quantile_from_uniform for doc in docs]
    by_law: dict[Law, list[int]] = {}
    for i, doc in enumerate(docs):
        if not _tabulated(doc.base):
            continue
        if doc.ccdf_at_bound > 0.0:
            by_law.setdefault(doc.base, []).append(i)
        else:
            _log.debug("quantile table: bound %g: Fbar(bound) = 0 leaves -log q "
                       "unbounded; using the exact quantile", doc.bound)
    for law, members in by_law.items():
        table = _QuantileTable.build(law, [docs[i] for i in members])
        if table is not None:
            for i in members:
                out[i] = table.for_doc(docs[i])
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
    residuals = np.abs(np.expm1(log_f - _derived_log_raw(m.alpha, m.ell, log_g)))
    return CouplingReport(float(residuals.max()),
                          tuple(zip(xs.tolist(), residuals.tolist())))


def derive_doc_law(channel: Law, alpha: float, ell: SlowVary,
                   bound: float) -> CoupledModel:
    """Build a coupled model whose document law comes from the relation.

    The raw survival function must be nonincreasing on a 256-point grid
    over [0, bound] (NotMonotone otherwise, which signals an ell too wild
    for the channel), and must drop to 1 or below somewhere on that grid
    (DegenerateTruncation otherwise).
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
    if not np.any(raw_log <= 0.0):
        raise DegenerateTruncation(
            "derived survival function exceeds 1 on the whole grid")
    return CoupledModel(channel, BoundedDoc(DerivedLaw(channel, alpha, ell), bound), alpha, ell)

