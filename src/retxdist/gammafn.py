"""Gamma-family special functions.

The tail approximations in this package are built around the upper
incomplete Gamma integral

    G(x, alpha) = int_x^inf e^(-z) z^(alpha - 1) dz,

so it gets a careful scalar implementation here rather than an opaque
library call: Lanczos for the complete Gamma, the classical power-series /
continued-fraction split for the incomplete integral (DLMF 8.11.4 and
8.9.2), a log-scale variant for deep tails where the linear value
underflows, and the divergent large-x asymptotic expansion
(Abramowitz & Stegun 6.5.32) exposed separately.

All functions are pure and safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import GammaOverflowError, InvalidParameter, NonConvergence

# Largest shape parameter before Gamma(alpha) overflows float64 headroom.
ALPHA_CAP = 170.0

# Lanczos approximation, g = 7, 9 coefficients (relative error ~1e-14 for
# real arguments in (0, 170]).
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_MAX_ITER = 10_000
_EPS = 2.220446049250313e-16


class Method(Enum):
    """Which evaluation route produced an incomplete-Gamma value."""

    SERIES = "series"
    CONTINUED_FRACTION = "continued_fraction"
    ASYMPTOTIC_EXPANSION = "asymptotic_expansion"


@dataclass(frozen=True)
class GammaEval:
    """Incomplete-Gamma value plus provenance and an error estimate."""

    value: float
    method: Method
    est_rel_err: float


def _check_alpha(alpha: float) -> None:
    if not alpha > 0.0:
        raise InvalidParameter(f"alpha must be positive, got {alpha}")
    if alpha > ALPHA_CAP:
        raise GammaOverflowError(f"alpha={alpha} exceeds overflow cap {ALPHA_CAP}")


def _lanczos(alpha: float) -> tuple[float, float, float]:
    """(z, t, acc) of the Lanczos kernel at z = alpha - 1: Gamma(alpha) is
    sqrt(2 pi) acc t^(z+0.5) e^(-t)."""
    _check_alpha(alpha)
    z = alpha - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (z + i)
    return z, z + _LANCZOS_G + 0.5, acc


def gamma(alpha: float) -> float:
    """Complete Gamma function for 0 < alpha <= 170."""
    z, t, acc = _lanczos(alpha)
    # exp of the assembled log keeps t^(z+0.5) from overflowing near the cap
    return math.sqrt(2.0 * math.pi) * acc * math.exp((z + 0.5) * math.log(t) - t)


def log_gamma(alpha: float) -> float:
    """log Gamma(alpha) for 0 < alpha <= 170 (same Lanczos kernel)."""
    z, t, acc = _lanczos(alpha)
    return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * math.log(t) - t + math.log(acc)


def _lower_series(x: float, alpha: float) -> tuple[float, float]:
    """Regularized lower integral P(alpha, x) by power series, for x < alpha + 1.

    Returns (P, est_rel_err).
    """
    if x == 0.0:
        return 0.0, 0.0
    ap = alpha
    term = 1.0 / alpha
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-17:
            scale = math.exp(-x + alpha * math.log(x) - log_gamma(alpha))
            return total * scale, max(abs(term / total), _EPS)
    raise NonConvergence(f"lower-series failed for x={x}, alpha={alpha}")


def _upper_cf(x: float, alpha: float) -> tuple[float, float]:
    """Continued fraction h with G(x, alpha) = e^(-x) x^alpha h, for x >= alpha + 1.

    Modified Lentz evaluation of DLMF 8.9.2. Returns (h, est_rel_err).
    """
    tiny = 1e-300
    b = x + 1.0 - alpha
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - alpha)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h, max(abs(delta - 1.0), _EPS)
    raise NonConvergence(f"continued fraction failed for x={x}, alpha={alpha}")


def upper_incomplete_gamma_eval(x: float, alpha: float) -> GammaEval:
    """G(x, alpha) with method tag and error estimate.

    Underflow policy: when e^(-x) x^alpha underflows (deep tail), returns
    value 0.0 with est_rel_err 1.0; use :func:`log_upper_incomplete_gamma`
    there instead.
    """
    _check_alpha(alpha)
    if x < 0.0:
        raise InvalidParameter(f"x must be nonnegative, got {x}")
    if math.isinf(x):
        return GammaEval(0.0, Method.CONTINUED_FRACTION, 1.0)
    if x < alpha + 1.0:
        p, err = _lower_series(x, alpha)
        return GammaEval(gamma(alpha) * (1.0 - p), Method.SERIES, err)
    h, err = _upper_cf(x, alpha)
    log_scale = -x + alpha * math.log(x)
    if log_scale + math.log(h) < -745.0:
        return GammaEval(0.0, Method.CONTINUED_FRACTION, 1.0)
    return GammaEval(math.exp(log_scale) * h, Method.CONTINUED_FRACTION, err)


def upper_incomplete_gamma(x: float, alpha: float) -> float:
    """G(x, alpha) = int_x^inf e^(-z) z^(alpha-1) dz."""
    return upper_incomplete_gamma_eval(x, alpha).value


def log_upper_incomplete_gamma(x: float, alpha: float) -> float:
    """log G(x, alpha), exact in the deep tail where the linear value underflows."""
    _check_alpha(alpha)
    if x < 0.0:
        raise InvalidParameter(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return log_gamma(alpha)
    if math.isinf(x):
        return -math.inf
    if x < alpha + 1.0:
        p, _ = _lower_series(x, alpha)
        return log_gamma(alpha) + math.log1p(-p)
    h, _ = _upper_cf(x, alpha)
    return -x + alpha * math.log(x) + math.log(h)


def regularized_upper_gamma(x: float, alpha: float) -> float:
    """Q(alpha, x) = G(x, alpha) / Gamma(alpha), in [0, 1]."""
    _check_alpha(alpha)
    if x < 0.0:
        raise InvalidParameter(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    if x < alpha + 1.0:
        p, _ = _lower_series(x, alpha)
        return 1.0 - p
    h, _ = _upper_cf(x, alpha)
    log_q = -x + alpha * math.log(x) + math.log(h) - log_gamma(alpha)
    if log_q < -745.0:
        return 0.0
    return math.exp(log_q)


def regularized_lower_gamma(x: float, alpha: float) -> float:
    """P(alpha, x) = 1 - Q(alpha, x), accurate for small x via the series."""
    _check_alpha(alpha)
    if x < 0.0:
        raise InvalidParameter(f"x must be nonnegative, got {x}")
    if math.isinf(x):
        return 1.0
    if x < alpha + 1.0:
        p, _ = _lower_series(x, alpha)
        return p
    return 1.0 - regularized_upper_gamma(x, alpha)


def log_regularized_upper_gamma(x: float, alpha: float) -> float:
    """log Q(alpha, x) without underflow."""
    return log_upper_incomplete_gamma(x, alpha) - log_gamma(alpha)


def incomplete_gamma_asymptotic(x: float, alpha: float, terms: int) -> float:
    """Large-x expansion x^(alpha-1) e^(-x) [1 + (alpha-1)/x + ...].

    The series is asymptotic, not convergent, so the term count is capped
    at floor(x) (optimal-truncation heuristic). `terms` counts the leading
    1 as the first term.
    """
    _check_alpha(alpha)
    if not x > 0.0:
        raise InvalidParameter(f"x must be positive, got {x}")
    if terms < 1:
        raise InvalidParameter(f"terms must be >= 1, got {terms}")
    n_terms = min(terms, max(1, math.floor(x)))
    total = 1.0
    term = 1.0
    for k in range(1, n_terms):
        term *= (alpha - k) / x
        total += term
    log_scale = (alpha - 1.0) * math.log(x) - x
    if log_scale < -745.0:
        return 0.0
    return math.exp(log_scale) * total
