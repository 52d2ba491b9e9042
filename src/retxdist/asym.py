"""Closed-form approximations for the retransmission-count CCDF.

For a document bounded at b with channel survival g = Gbar(b), the
distribution of the retransmission count has a truncated power-law shape:
a power-law main body of index alpha that hands over to a geometric tail
with ratio (1 - g). The workhorse here is the uniform approximation

    P[N_b > n] ~ alpha * G(-n log(1 - g), alpha)
                 / (n^alpha * ell(min(n, 1/g))),

a power law multiplied by the upper incomplete Gamma integral, scaled by
1/P[L <= b] (the truncation correction, which measurably helps at small
bounds). Its two regime limits, the pure power
law and the geometric tail, are exposed separately, as are the log-scale
body approximation n log(1-g) - alpha log n, the matching log-scale upper
bound, and the exact finite sum available when alpha is an integer.

Everything is also available in log scale: deep-tail comparisons run far
below the smallest positive float64. All functions are pure; unrestricted
concurrent use is fine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import gammafn
from .dists import CoupledModel, SlowVary, SlowVaryOne
from .errors import EllNotOne, InvalidParameter, NonConvergence, NoRoot, NotInteger
from .gammafn import exp_or_zero

_INTEGER_TOL = 1e-12


@dataclass(frozen=True)
class ApproxParams:
    """Everything the closed forms need to know about a model at one bound."""

    alpha: float
    ell: SlowVary
    gbar_b: float          # channel survival at the bound, in (0, 1)
    F_b: float             # P[L <= b] for the untruncated document law

    def __post_init__(self) -> None:
        if not 0.0 < self.gbar_b < 1.0:
            raise InvalidParameter(f"gbar_b must be in (0, 1), got {self.gbar_b}")
        if not 0.0 < self.F_b <= 1.0:
            raise InvalidParameter(f"F_b must be in (0, 1], got {self.F_b}")
        if not self.alpha > 0.0:
            raise InvalidParameter(f"alpha must be positive, got {self.alpha}")

    @classmethod
    def from_model(cls, m: CoupledModel) -> "ApproxParams":
        g = m.gbar_bound
        if g <= 0.0:
            raise InvalidParameter(
                "closed forms need a finite bound (unbounded models are a "
                "pure power law; use power_law_limit)")
        return cls(m.alpha, m.ell, g, m.doc.cdf_at_bound)


@dataclass(frozen=True)
class TransitionReport:
    """Where the power-law body hands over to the geometric tail.

    n_heuristic is alpha / Gbar(b); n_fixed_point solves
    n Gbar(b) = alpha log n on the upper branch (n > e). The two onset
    estimates differ and neither is canonical; both are reported.
    """

    n_heuristic: float
    n_fixed_point: float
    bracket: tuple[float, float]


def neg_log_one_minus(g: float) -> float:
    """-log(1 - g) without cancellation."""
    return -math.log1p(-g)


def _gamma_argument(p: ApproxParams, n: int) -> float:
    return n * neg_log_one_minus(p.gbar_b)


def _log_ell_term(p: ApproxParams, n: int) -> float:
    # ell argument switches from n to 1/gbar_b once n exceeds 1/gbar_b.
    log_arg = min(math.log(n), -math.log(p.gbar_b))
    return float(p.ell.log_value(log_arg))


def uniform_approx(p: ApproxParams, n: int) -> float:
    """Uniform power-law-times-Gamma approximation of P[N_b > n]."""
    return exp_or_zero(log_uniform_approx(p, n))


def log_uniform_approx(p: ApproxParams, n: int) -> float:
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    x = _gamma_argument(p, n)
    return (-math.log(p.F_b) + math.log(p.alpha)
            + gammafn.log_upper_incomplete_gamma(x, p.alpha)
            - p.alpha * math.log(n) - _log_ell_term(p, n))


def power_law_limit(p: ApproxParams, n: int) -> float:
    """Pure power-law limit Gamma(alpha + 1) / (ell(n) n^alpha).

    This is what the uniform approximation converges to when
    n * Gbar(b) -> 0 (effectively unbounded documents).
    """
    return exp_or_zero(log_power_law_limit(p, n))


def log_power_law_limit(p: ApproxParams, n: int) -> float:
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    return (gammafn.log_gamma(p.alpha + 1.0)
            - float(p.ell.log_value(math.log(n)))
            - p.alpha * math.log(n))


def require_integer_alpha(alpha: float) -> int:
    """alpha as an int; NotInteger unless it is a positive integer."""
    a = round(alpha)
    if abs(alpha - a) > _INTEGER_TOL or a < 1:
        raise NotInteger(f"alpha={alpha} is not a positive integer")
    return int(a)


def require_ell_one(ell: SlowVary) -> None:
    """EllNotOne unless ell is the trivial slowly varying function."""
    if not isinstance(ell, SlowVaryOne):
        raise EllNotOne("this closed form requires ell == 1")


def exact_integer_ccdf(p: ApproxParams, n: int) -> float:
    """Exact P[N_b > n] for integer alpha and ell == 1.

    Finite sum over i = 1..alpha of
    alpha! n! Gbar^(alpha-i) (1-Gbar)^(n+i) / ((alpha-i)! (n+i)!),
    divided by P[L <= b]; evaluated in log space so deep tails survive.
    """
    return exp_or_zero(log_exact_integer_ccdf(p, n))


def log_exact_integer_ccdf(p: ApproxParams, n: int) -> float:
    if n < 0:
        raise InvalidParameter(f"n must be >= 0, got {n}")
    a = require_integer_alpha(p.alpha)
    require_ell_one(p.ell)
    g = p.gbar_b
    log_g = math.log(g)
    log_1mg = math.log1p(-g)
    log_fact_a = math.lgamma(a + 1.0)
    log_terms = []
    log_falling = 0.0          # log((n+1)(n+2)...(n+i)) accumulated
    for i in range(1, a + 1):
        log_falling += math.log(n + i)
        log_terms.append(log_fact_a - math.lgamma(a - i + 1.0)
                         + (a - i) * log_g + (n + i) * log_1mg - log_falling)
    m = max(log_terms)
    total = math.fsum(math.exp(t - m) for t in log_terms)
    return -math.log(p.F_b) + m + math.log(total)


def exp_tail_asymptote(p: ApproxParams, n: int) -> float:
    """Fixed-bound geometric tail: the n -> infinity asymptote.

    (alpha Gbar^(alpha-1) / P[L <= b]) (1-Gbar)^(n+1) / (n+1); exact
    asymptotics for fixed b when ell == 1. Use exp_tail_general for
    nontrivial ell.
    """
    return exp_or_zero(log_exp_tail_asymptote(p, n))


def log_exp_tail_asymptote(p: ApproxParams, n: int) -> float:
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    require_ell_one(p.ell)
    g = p.gbar_b
    return (math.log(p.alpha) + (p.alpha - 1.0) * math.log(g) - math.log(p.F_b)
            + (n + 1) * math.log1p(-g) - math.log(n + 1))


def exp_tail_general(p: ApproxParams, n: int) -> float:
    """Geometric-tail asymptote for general slowly varying ell.

    (alpha / (ell(1/Gbar) n)) Gbar^(alpha-1) (1-Gbar)^n; valid as both n
    and the bound grow with n * Gbar(b) -> infinity.
    """
    return exp_or_zero(log_exp_tail_general(p, n))


def log_exp_tail_general(p: ApproxParams, n: int) -> float:
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    g = p.gbar_b
    return (math.log(p.alpha) - float(p.ell.log_value(-math.log(g))) - math.log(n)
            + (p.alpha - 1.0) * math.log(g) + n * math.log1p(-g))


def log_body(p: ApproxParams, n: int) -> float:
    """Log-scale body approximation n log(1 - Gbar) - alpha log n."""
    if n < 2:
        raise InvalidParameter(f"n must be >= 2, got {n}")
    return n * math.log1p(-p.gbar_b) - p.alpha * math.log(n)


def log_upper_bound(p: ApproxParams, n: int, eps: float) -> float:
    """(1 - eps)-deflated log body; an upper bound on log P[N_b > n]
    for all n past some model-dependent onset."""
    if not 0.0 <= eps < 1.0:
        raise InvalidParameter(f"eps must be in [0, 1), got {eps}")
    return (1.0 - eps) * log_body(p, n)


def power_law_region_check(p: ApproxParams, n: int, eps: float) -> bool:
    """True iff n^(1+eps) Gbar(b) <= 1.

    Inside this region -log P[N_b > n] tracks alpha log n to within eps,
    i.e. the distribution is still a pure power law.
    """
    if not eps > 0.0:
        raise InvalidParameter(f"eps must be positive, got {eps}")
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    return (1.0 + eps) * math.log(n) + math.log(p.gbar_b) <= 0.0


def transition_point(p: ApproxParams) -> TransitionReport:
    """Locate the power-law-to-geometric handover.

    Solves n Gbar(b) = alpha log n on the branch n > e by bracketed
    bisection with Newton polish, to 1e-9 relative residual. Requires
    Gbar(b) < alpha/e: exactly the condition for the upper-branch root
    (which then automatically exceeds e) to exist.
    """
    g = p.gbar_b
    alpha = p.alpha
    if g >= alpha / math.e:
        raise NoRoot(f"Gbar(b)={g} >= alpha/e: no root on the upper branch")

    def h(n: float) -> float:
        return n * g - alpha * math.log(n)

    lo = alpha / g                      # stationary point; h(lo) < 0 here
    hi = max(2.0 * lo, math.e ** 2)
    for _ in range(2000):
        if h(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise NonConvergence("transition bracket expansion failed")
    bracket = (lo, hi)

    a, b = lo, hi
    for _ in range(500):
        mid = 0.5 * (a + b)
        if h(mid) < 0.0:
            a = mid
        else:
            b = mid
        if b - a <= 1e-13 * a:
            break
    n_fp = 0.5 * (a + b)
    for _ in range(4):                  # Newton polish; h'(n) = g - alpha/n > 0
        deriv = g - alpha / n_fp
        if deriv <= 0.0:
            break
        n_fp -= h(n_fp) / deriv
    residual = abs(n_fp * g - alpha * math.log(n_fp))
    if residual > 1e-9 * alpha * math.log(n_fp):
        raise NonConvergence(f"transition solver residual {residual} too large")
    return TransitionReport(alpha / g, n_fp, bracket)
