"""Ground-truth retransmission CCDF by high-accuracy quadrature.

Given the document, the retransmission count is geometric with success
probability W = Gbar(L_b) in [g, 1], g = Gbar(b), so P[N_b > n] =
E[(1 - W)^n]. W has distribution function H(w), the bounded-document
survival at the channel quantile of w. By parts, with w = g + (1 - g) y,

    P[N_b > n] = n (1 - g)^n int_0^1 (1 - y)^(n-1) H(g + (1 - g) y) dy.

H calls no document quantile, so the oracle shares no law method with
Monte Carlo (document quantile, then channel ccdf). The factor
(1 - g)^n is taken out exactly, which keeps log values exact far below
float underflow (deep tails reach e^-4000 and below).

The weight's mass lies in a layer of width 1/n at y = 0, and H varies on
the scale g there. Seed panel edges ascend geometrically from a quarter
of the smaller scale up to 1, so every scale is sampled before adaptive
refinement starts. A log_power ell is clamped at x_min, which kinks H at
w = 1/x_min; that point is one more edge.

Evaluations are pure; concurrent evaluation over grid points is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dists import CoupledModel, SlowVaryLogPower
from .errors import InvalidParameter, QuadratureFailure
from .quadrature import integrate_adaptive

REL_TOL = 5e-13
MAX_PANELS = 1_000_000

# Geometric seed edges per decade of y; fewer leave layers to refinement
# rounds, each one more integrand pass.
_EDGES_PER_DECADE = 6


@dataclass(frozen=True)
class OracleResult:
    """One exact CCDF value with an error estimate.

    log_value is exact even when value underflows to 0; est_abs_err is the
    quadrature error propagated to the linear scale; evaluations counts
    integrand points.
    """

    n: int
    value: float
    est_abs_err: float
    subdivisions: int
    log_value: float
    evaluations: int = 0


def _seed_edges(m: CoupledModel, n: int) -> np.ndarray:
    """Panel edges in y: 0, then geometric from a quarter of min(1/n, g)
    (of 1/n when g = 0) up to 1, plus the kink of a log_power ell."""
    g = m.gbar_bound
    y0 = 0.25 * (min(1.0 / n, g) if g > 0.0 else 1.0 / n)
    edges = [0.0, *np.geomspace(y0, 1.0, math.ceil(-_EDGES_PER_DECADE * math.log10(y0)) + 1)]
    if isinstance(m.ell, SlowVaryLogPower):
        edges.append((1.0 / m.ell.x_min - g) / (1.0 - g))
    # a bound below the kink puts it at w <= g, which clips onto the edge 0
    return np.unique(np.clip(edges, 0.0, 1.0))


def ccdf_exact(m: CoupledModel, n: int) -> OracleResult:
    """Exact P[N_b > n] for one n (n = 0 returns exactly 1), to REL_TOL
    within MAX_PANELS panels."""
    if n < 0:
        raise InvalidParameter(f"n must be >= 0, got {n}")
    if n == 0:
        return OracleResult(0, 1.0, 0.0, 0, 0.0)

    g = m.gbar_bound

    def integrand(y: np.ndarray) -> np.ndarray:
        x = m.channel.quantile_ccdf(g + (1.0 - g) * y)
        return np.exp((n - 1) * np.log1p(-y)) * m.doc.ccdf(x)

    try:
        quad = integrate_adaptive(integrand, 0.0, 1.0, rel_tol=REL_TOL,
                                  max_panels=MAX_PANELS, initial_edges=_seed_edges(m, n))
    except QuadratureFailure as exc:
        raise QuadratureFailure(f"n={n}: {exc}") from exc
    if quad.value <= 0.0:
        raise QuadratureFailure(
            f"n={n}: nonpositive integral {quad.value} after {quad.panels} panels "
            f"and {quad.evaluations} evaluations")
    log_value = math.log(n) + n * math.log1p(-g) + math.log(quad.value)
    value = math.exp(log_value) if log_value > -745.0 else 0.0
    est_abs_err = value * (quad.abs_err / quad.value)
    return OracleResult(n, value, est_abs_err, quad.panels, log_value, quad.evaluations)


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
                f"after {prev_log} ({res.subdivisions} panels, "
                f"{res.evaluations} evaluations)")
        prev_log = res.log_value
        if stop_below is not None and res.value < stop_below and out:
            break
        out.append(res)
    return out
