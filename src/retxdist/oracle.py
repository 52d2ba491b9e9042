"""Ground-truth retransmission CCDF by high-accuracy quadrature.

The retransmission count is geometric given the document size, so

    P[N_b > n] = E[(1 - Gbar(L_b))^n]
               = int_0^1 (1 - Gbar(X(v)))^n dv,

where X(v) is the truncated document quantile written in survival form:
X(v) solves Fbar(X) = Fbar(b) + v F(b). The substitution makes the
measure uniform and the integrand bounded, needs no density (so derived
document laws integrate exactly like parametric ones), and parameterizes
the integrand by its survival argument directly, which avoids the
catastrophic cancellation that 1 - u F(b) would suffer near the bound.

The integrand's mass concentrates at v = 0 in a layer whose width shrinks
like 1/(n Gbar(b)'); the integrator is seeded with geometric panel edges
so every layer scale is sampled before adaptive refinement starts, and
the integrand is always factored against its maximum (1 - Gbar(b))^n so
the result carries an exact log value even when the linear probability
underflows (deep tails reach e^-4000 and below).

Evaluations are pure; concurrent evaluation over grid points is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dists import CoupledModel
from .errors import InvalidParameter, QuadratureFailure
from .quadrature import integrate_adaptive

REL_TOL = 5e-13
MAX_PANELS = 1_000_000

# Geometric seed edges: resolve boundary layers down to width 1e-12
# before refinement; [0, 1e-12] is then split adaptively if needed.
_SEED_EDGES = np.concatenate([[0.0], np.geomspace(1e-12, 1.0, 25)])


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


def _log_survival_map(m: CoupledModel):
    """v in [0, 1] -> log(1 - Gbar(X(v))), X(v) the survival-form quantile."""
    base = m.doc.base
    channel = m.channel
    bound = m.doc.bound
    fbar_b = 0.0 if math.isinf(bound) else float(base.ccdf(bound))
    f_b = m.doc.cdf_at_bound

    def log_one_minus_p(v: np.ndarray) -> np.ndarray:
        q = np.minimum(fbar_b + np.asarray(v, dtype=float) * f_b, 1.0)
        x = base.quantile_ccdf(q)
        p = np.minimum(np.asarray(channel.ccdf(x), dtype=float), 1.0)
        with np.errstate(divide="ignore"):
            return np.log1p(-p)

    return log_one_minus_p


def ccdf_exact(m: CoupledModel, n: int, *,
               rel_tol: float = REL_TOL,
               max_panels: int = MAX_PANELS) -> OracleResult:
    """Exact P[N_b > n] for one n (n = 0 returns exactly 1)."""
    if n < 0:
        raise InvalidParameter(f"n must be >= 0, got {n}")
    if n == 0:
        return OracleResult(0, 1.0, 0.0, 0, 0.0)

    log_peak = n * math.log1p(-m.gbar_bound())
    c = _log_survival_map(m)

    def integrand(v: np.ndarray) -> np.ndarray:
        return np.exp(np.minimum(n * c(v) - log_peak, 0.0))

    try:
        quad = integrate_adaptive(integrand, 0.0, 1.0, rel_tol=rel_tol,
                                  max_panels=max_panels,
                                  initial_edges=_SEED_EDGES)
    except QuadratureFailure as exc:
        raise QuadratureFailure(f"n={n}: {exc}") from exc
    if quad.value <= 0.0:
        raise QuadratureFailure(f"n={n}: nonpositive integral {quad.value}")
    log_value = log_peak + math.log(quad.value)
    value = math.exp(log_value) if log_value > -745.0 else 0.0
    est_abs_err = value * (quad.abs_err / quad.value)
    return OracleResult(n, value, est_abs_err, quad.panels, log_value,
                        quad.evaluations)


def ccdf_exact_curve(m: CoupledModel, grid: Sequence[int], *,
                     stop_below: Optional[float] = None,
                     rel_tol: float = REL_TOL,
                     max_panels: int = MAX_PANELS) -> list[OracleResult]:
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
        res = ccdf_exact(m, int(n), rel_tol=rel_tol, max_panels=max_panels)
        if res.log_value > prev_log + 1e-9:
            raise QuadratureFailure(
                f"oracle curve not monotone at n={n}: "
                f"log {res.log_value} after {prev_log}")
        prev_log = res.log_value
        if stop_below is not None and res.value < stop_below and out:
            break
        out.append(res)
    return out
