"""Ground-truth retransmission CCDF by high-accuracy quadrature.

Given the document, the retransmission count is geometric with success
probability W = Gbar(L_b) in [g, 1], g = Gbar(b), so P[N_b > n] =
E[(1 - W)^n]. W has distribution function H(w), the bounded-document
survival at the channel quantile of w. By parts, with
w = g + (1 - g) y and y = 1 - e^(-s/n),

    P[N_b > n] = (1 - g)^n int_0^inf e^(-s) H(g + (1 - g) y(s)) ds.

H calls no document quantile, so the oracle shares no law method with
Monte Carlo (document quantile, then channel ccdf). The factor
(1 - g)^n is taken out exactly, which keeps log values exact far below
float underflow (deep tails reach e^-4000 and below).

The weight is e^(-s) for every n, and H is smooth in s, so one fixed
exp-sinh rule (Takahasi & Mori, Publ. RIMS 9, 1974) serves every call:
nodes s_k = exp(pi/2 sinh(kh)) with h = 1/32, kh in [-4, 4] and s_k < 800,
197 nodes computed once at import. The even-k nodes are the same rule at
step 2h; the two levels' difference is the error estimate, and a call
whose levels differ by more than REL_TOL relative raises.

A log_power ell is clamped at x_min, which kinks H at w = 1/x_min. Where
that point lies in (g, 1) the integral is split at its s, s_c, and both
pieces take the same nodes sigma_k: s = s_c (1 - e^(-sigma/s_c)) on
[0, s_c) and s = s_c + sigma on [s_c, inf), 394 nodes in all.

Evaluations are pure and hold no state between calls, so concurrent calls
are safe and a value does not depend on the calls before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dists import CoupledModel, SlowVaryLogPower
from .errors import InvalidParameter, QuadratureFailure
from .gammafn import exp_or_zero

REL_TOL = 5e-13

# The exp-sinh rule in sigma: nodes, h dsigma/dt, and weights for e^(-sigma).
_T = np.arange(-128, 129) / 32.0
_KEEP = np.exp(0.5 * np.pi * np.sinh(_T)) < 800.0
_SIGMA = np.exp(0.5 * np.pi * np.sinh(_T[_KEEP]))
_DSIGMA = np.pi / 64.0 * np.cosh(_T[_KEEP]) * _SIGMA
_WEIGHTS = _DSIGMA * np.exp(-_SIGMA)


@dataclass(frozen=True)
class OracleResult:
    """One exact CCDF value with an error estimate.

    log_value is exact even when value underflows to 0; est_abs_err is the
    difference of the rule's two levels on the linear scale; subdivisions
    and evaluations both count integrand points.
    """

    n: int
    value: float
    est_abs_err: float
    subdivisions: int
    log_value: float
    evaluations: int = 0


@dataclass(frozen=True)
class _Levels:
    value: float        # step h
    coarse: float       # step 2h
    evaluations: int


def _survival(m: CoupledModel, y: np.ndarray) -> np.ndarray:
    """H(g + (1 - g) y): the document survival at the channel quantile."""
    g = m.gbar_bound
    return m.doc.ccdf(m.channel.quantile_ccdf(g + (1.0 - g) * y))


def _nodes(m: CoupledModel, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes in s and their weights, e^(-s) ds included, one row per piece."""
    g = m.gbar_bound
    if isinstance(m.ell, SlowVaryLogPower):
        y_c = (1.0 / m.ell.x_min - g) / (1.0 - g)
        if y_c > 0.0:
            s_c = -n * math.log1p(-y_c)
            ratio = _SIGMA / s_c
            below = -s_c * np.expm1(-ratio)
            return (np.stack([below, s_c + _SIGMA]),
                    np.stack([_DSIGMA * np.exp(-below - ratio), _WEIGHTS * math.exp(-s_c)]))
    return _SIGMA[None, :], _WEIGHTS[None, :]


def _integrate(f: Callable[[np.ndarray], np.ndarray], s: np.ndarray,
               w: np.ndarray) -> _Levels:
    """Both levels of sum(w f(s)), in one call of f over every node: all
    nodes (step h), and every other node of each row, doubled (step 2h)."""
    terms = w * f(s.ravel()).reshape(s.shape)
    return _Levels(float(terms.sum()), 2.0 * float(terms[:, ::2].sum()), terms.size)


# ccdf_exact calls the rule by this name; perfbench/spans.py patches it.
integrate_adaptive = _integrate


def ccdf_exact(m: CoupledModel, n: int) -> OracleResult:
    """Exact P[N_b > n] for one n (n = 0 returns exactly 1), to REL_TOL."""
    if n < 0:
        raise InvalidParameter(f"n must be >= 0, got {n}")
    if n == 0:
        return OracleResult(0, 1.0, 0.0, 0, 0.0)

    quad = integrate_adaptive(lambda s: _survival(m, -np.expm1(-s / n)), *_nodes(m, n))
    if not quad.value > 0.0:
        raise QuadratureFailure(
            f"n={n}: nonpositive integral {quad.value} over {quad.evaluations} nodes")
    gap = abs(quad.value - quad.coarse)
    if not gap <= REL_TOL * quad.value:
        raise QuadratureFailure(
            f"n={n}: levels h=1/32 ({quad.value!r}) and h=1/16 ({quad.coarse!r}) "
            f"differ by {gap / quad.value:.3e} relative, above {REL_TOL:g}, "
            f"over {quad.evaluations} nodes")
    log_value = n * math.log1p(-m.gbar_bound) + math.log(quad.value)
    value = exp_or_zero(log_value)
    return OracleResult(n, value, value * (gap / quad.value), quad.evaluations,
                        log_value, quad.evaluations)


def ccdf_exact_curve(m: CoupledModel, grid: Sequence[int], *,
                     stop_below: Optional[float] = None) -> list[OracleResult]:
    """Exact CCDF over a strictly increasing grid of counts, in grid order.

    Enforces that the computed values are nonincreasing in n; a violation
    means the quadrature tolerance was not actually met. With stop_below,
    the curve ends before the first value under it once one point is
    kept, and the rest of the grid is never evaluated.
    """
    grid = list(grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidParameter("grid must be strictly increasing")
    out: list[OracleResult] = []
    prev_log = math.inf
    for n in grid:
        res = ccdf_exact(m, int(n))
        if res.log_value > prev_log + 1e-9:
            raise QuadratureFailure(
                f"oracle curve not monotone at n={n}: log {res.log_value} "
                f"after {prev_log} ({res.evaluations} nodes)")
        prev_log = res.log_value
        if stop_below is not None and res.value < stop_below and out:
            break
        out.append(res)
    return out
