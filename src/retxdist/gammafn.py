"""Gamma-family special functions.

The tail approximations in this package are built around the upper
incomplete Gamma integral

    G(x, alpha) = int_x^inf e^(-z) z^(alpha - 1) dz,

so it gets a careful scalar implementation here rather than an opaque
library call: one evaluator makes the power-series / continued-fraction
split (DLMF 8.11.4 and 8.9.2) behind every incomplete function, a
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

from .errors import GammaOverflowError, InvalidParameter, NonConvergence

# Largest shape parameter before Gamma(alpha) overflows float64 headroom.
ALPHA_CAP = 170.0

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


def _incomplete(x: float, alpha: float) -> tuple[Method, float, float]:
    """The one evaluation behind every incomplete function, after the alpha
    and x checks: (SERIES, P(alpha, x), err) below x = alpha + 1, else
    (CONTINUED_FRACTION, log G(x, alpha), err), with log G = -inf at x = inf."""
    _check_alpha(alpha)
    if x < 0.0:
        raise InvalidParameter(f"x must be nonnegative, got {x}")
    if x < alpha + 1.0:
        p, err = _lower_series(x, alpha)
        return Method.SERIES, p, err
    if math.isinf(x):
        return Method.CONTINUED_FRACTION, -math.inf, 1.0
    h, err = _upper_cf(x, alpha)
    return Method.CONTINUED_FRACTION, -x + alpha * math.log(x) + math.log(h), err


def upper_incomplete_gamma_eval(x: float, alpha: float) -> GammaEval:
    """G(x, alpha) with method tag and error estimate.

    Underflow policy: when G underflows (deep tail), returns value 0.0 with
    est_rel_err 1.0; use :func:`log_upper_incomplete_gamma` there instead.
    """
    method, v, err = _incomplete(x, alpha)
    if method is Method.SERIES:
        return GammaEval(gamma(alpha) * (1.0 - v), method, err)
    value = exp_or_zero(v)
    return GammaEval(value, method, err if value > 0.0 else 1.0)


def upper_incomplete_gamma(x: float, alpha: float) -> float:
    """G(x, alpha) = int_x^inf e^(-z) z^(alpha-1) dz."""
    return upper_incomplete_gamma_eval(x, alpha).value


def log_upper_incomplete_gamma(x: float, alpha: float) -> float:
    """log G(x, alpha), exact in the deep tail where the linear value underflows."""
    method, v, _ = _incomplete(x, alpha)
    return log_gamma(alpha) + math.log1p(-v) if method is Method.SERIES else v


def regularized_upper_gamma(x: float, alpha: float) -> float:
    """Q(alpha, x) = G(x, alpha) / Gamma(alpha), in [0, 1]."""
    method, v, _ = _incomplete(x, alpha)
    return 1.0 - v if method is Method.SERIES else exp_or_zero(v - log_gamma(alpha))


def regularized_lower_gamma(x: float, alpha: float) -> float:
    """P(alpha, x) = 1 - Q(alpha, x), accurate for small x via the series."""
    method, v, _ = _incomplete(x, alpha)
    return v if method is Method.SERIES else 1.0 - exp_or_zero(v - log_gamma(alpha))


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
