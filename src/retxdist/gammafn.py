"""Gamma-family special functions.

The tail approximations in this package are built around the upper
incomplete Gamma integral

    G(x, alpha) = int_x^inf e^(-z) z^(alpha - 1) dz,

so it gets a careful scalar implementation here rather than an opaque
library call: one evaluator makes the power-series / continued-fraction
split (DLMF 8.11.4 and 8.9.2) behind every incomplete function, with G
summed directly (DLMF 8.7.3) at small shape where 1 - P cancels, a
log-scale variant serves deep tails where the linear value underflows,
and the divergent large-x asymptotic expansion (Abramowitz & Stegun
6.5.32) is exposed separately. The complete Gamma and its log are
math.gamma and math.lgamma behind typed domain checks. exp_or_zero is
the package's one underflow rule.

All functions are pure and safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import GammaOverflowError, InvalidParameter, NonConvergence

# Largest shape parameter before Gamma(alpha) overflows float64 headroom.
ALPHA_CAP = 170.0

_MAX_ITER = 10_000
_EPS = 2.220446049250313e-16

# Below this shape the incomplete functions take G from its own series: P is
# near 1 there, so Gamma(alpha) (1 - P) cancels. Every preset has alpha >= 0.5.
_SMALL_ALPHA = 0.25
_EULER = 0.5772156649015329
# zeta(k) - 1 for k = 2..16 (DLMF 25.2.1): enough terms of DLMF 5.7.3 for
# full precision below _SMALL_ALPHA.
_ZETA_MINUS_1 = (0.6449340668482264, 0.2020569031595943, 0.08232323371113819,
                 0.03692775514336993, 0.01734306198444914, 0.008349277381922827,
                 0.00407735619794434, 0.0020083928260822143, 0.0009945751278180853,
                 0.0004941886041194645, 0.0002460865533080483, 0.00012271334757848915,
                 6.124813505870483e-05, 3.058823630702049e-05, 1.528225940865187e-05)


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


def exp_or_zero(v: float) -> float:
    """e^v, or 0.0 for v <= -745, where e^v is at most the smallest subnormal."""
    return math.exp(v) if v > -745.0 else 0.0


def _check_alpha(alpha: float) -> None:
    if not alpha > 0.0:
        raise InvalidParameter(f"alpha must be positive, got {alpha}")
    if alpha > ALPHA_CAP:
        raise GammaOverflowError(f"alpha={alpha} exceeds overflow cap {ALPHA_CAP}")


def gamma(alpha: float) -> float:
    """Complete Gamma function for 0 < alpha <= 170; GammaOverflowError
    where it overflows (alpha below about 5.6e-309)."""
    _check_alpha(alpha)
    try:
        return math.gamma(alpha)
    except OverflowError:
        raise GammaOverflowError(f"Gamma({alpha}) overflows float64") from None


def log_gamma(alpha: float) -> float:
    """log Gamma(alpha) for 0 < alpha <= 170, finite down to the smallest
    subnormal alpha."""
    _check_alpha(alpha)
    return math.lgamma(alpha)


def _lower_series(x: float, alpha: float) -> tuple[float, float]:
    """S = sum_k x^k / ((alpha+1)...(alpha+k)) over k >= 0, for 0 < x < alpha + 1,
    so that P(alpha, x) = x^alpha e^(-x) S / Gamma(1 + alpha) (DLMF 8.7.1).

    Returns (S, est_rel_err).
    """
    ap = alpha
    term = total = 1.0
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-17:
            return total, max(abs(term / total), _EPS)
    raise NonConvergence(f"lower-series failed for x={x}, alpha={alpha}")


def _expm1_ratio(y: float) -> float:
    """(e^y - 1) / y, 1 at y = 0."""
    return math.expm1(y) / y if y else 1.0


def _log_gamma1p_ratio(alpha: float) -> float:
    """log Gamma(1 + alpha) / alpha for 0 < alpha < _SMALL_ALPHA, by DLMF 5.7.3
    divided through by alpha, so subnormal alpha keeps every digit."""
    total = 1.0 - _EULER - math.log1p(alpha) / alpha
    power = -1.0
    for k, zeta_m1 in enumerate(_ZETA_MINUS_1, start=2):
        power *= -alpha
        total += zeta_m1 * power / k
    return total


def _upper_small(x: float, alpha: float, log_x: float,
                 lg1p_ratio: float) -> tuple[float, float]:
    """G(x, alpha) for alpha < _SMALL_ALPHA and 0 < x < alpha + 1, by DLMF 8.7.3
    with the 1/alpha parts of Gamma(alpha) and of the k = 0 term cancelled
    exactly:

        G = (Gamma(1+alpha) - 1)/alpha - (x^alpha - 1)/alpha
            - x^alpha sum_{k>=1} (-x)^k / (k! (alpha + k)).

    log_x is log x, lg1p_ratio log Gamma(1 + alpha) / alpha. Returns
    (G, est_rel_err).
    """
    total, factor = 0.0, 1.0
    for k in range(1, _MAX_ITER):
        factor *= -x / k
        term = factor / (alpha + k)
        total += term
        if abs(term) <= abs(total) * 1e-17:
            break
    else:
        raise NonConvergence(f"small-alpha series failed for x={x}, alpha={alpha}")
    parts = (lg1p_ratio * _expm1_ratio(alpha * lg1p_ratio),
             -log_x * _expm1_ratio(alpha * log_x),
             -math.exp(alpha * log_x) * total)
    g = sum(parts)
    return g, max(_EPS * sum(map(abs, parts)) / g, _EPS)


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


def _incomplete(x: float, alpha: float) -> tuple[Method, Optional[float],
                                                 Optional[float], float]:
    """The one evaluation behind every incomplete function, after the alpha
    and x checks: (method, P(alpha, x), log G(x, alpha), err). Below
    x = alpha + 1 the series gives P, and for alpha < _SMALL_ALPHA, where
    Gamma(alpha) (1 - P) cancels, log G as well; above, the continued
    fraction gives log G (-inf at x = inf). A value left None is for the
    caller to derive from the other."""
    _check_alpha(alpha)
    if x < 0.0:
        raise InvalidParameter(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return Method.SERIES, 0.0, None, 0.0
    if x < alpha + 1.0:
        s, err = _lower_series(x, alpha)
        log_x = math.log(x)
        if alpha >= _SMALL_ALPHA:
            # dividing by alpha last keeps the bits of a series started at
            # 1/alpha for alpha a power of two (every preset's)
            p = s * math.exp(-x + alpha * log_x - log_gamma(alpha)) / alpha
            return Method.SERIES, p, None, err
        ratio = _log_gamma1p_ratio(alpha)
        p = s * math.exp(alpha * log_x - x - alpha * ratio)
        g, g_err = _upper_small(x, alpha, log_x, ratio)
        return Method.SERIES, p, math.log(g), max(err, g_err)
    if math.isinf(x):
        return Method.CONTINUED_FRACTION, None, -math.inf, 1.0
    h, err = _upper_cf(x, alpha)
    return Method.CONTINUED_FRACTION, None, -x + alpha * math.log(x) + math.log(h), err


def upper_incomplete_gamma_eval(x: float, alpha: float) -> GammaEval:
    """G(x, alpha) with method tag and error estimate.

    Underflow policy: when G underflows (deep tail), returns value 0.0 with
    est_rel_err 1.0; use :func:`log_upper_incomplete_gamma` there instead.
    """
    method, p, log_g, err = _incomplete(x, alpha)
    if log_g is None:
        return GammaEval(gamma(alpha) * (1.0 - p), method, err)
    value = exp_or_zero(log_g)
    return GammaEval(value, method, err if value > 0.0 else 1.0)


def upper_incomplete_gamma(x: float, alpha: float) -> float:
    """G(x, alpha) = int_x^inf e^(-z) z^(alpha-1) dz."""
    return upper_incomplete_gamma_eval(x, alpha).value


def log_upper_incomplete_gamma(x: float, alpha: float) -> float:
    """log G(x, alpha), exact in the deep tail where the linear value underflows."""
    _, p, log_g, _ = _incomplete(x, alpha)
    return log_gamma(alpha) + math.log1p(-p) if log_g is None else log_g


def regularized_upper_gamma(x: float, alpha: float) -> float:
    """Q(alpha, x) = G(x, alpha) / Gamma(alpha), in [0, 1]."""
    _, p, log_g, _ = _incomplete(x, alpha)
    return 1.0 - p if log_g is None else exp_or_zero(log_g - log_gamma(alpha))


def regularized_lower_gamma(x: float, alpha: float) -> float:
    """P(alpha, x) = 1 - Q(alpha, x), accurate for small x via the series."""
    _, p, log_g, _ = _incomplete(x, alpha)
    return 1.0 - exp_or_zero(log_g - log_gamma(alpha)) if p is None else p


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
    return exp_or_zero((alpha - 1.0) * math.log(x) - x) * total
