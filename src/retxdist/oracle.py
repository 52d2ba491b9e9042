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
the scale g there. Seed panel edges are points of one fixed lattice,
y_j = 10^(-j/6), taken from the first point at or below a quarter of the
smaller scale up to 1, so every scale is sampled before adaptive
refinement starts. A log_power ell is clamped at x_min, which kinks H at
w = 1/x_min; that point is one more edge.

H does not depend on n, and the lattice does not move with n, so a seed
depends only on the model and its lattice depth. Seeds, with H at the
Kronrod nodes of their panels, are memoized by (model, depth) in one
least-recently-used memo of _SEED_MEMO entries; models compare by value,
so equal models share entries. Repeated calls then pay one weight
evaluation for the seed pass. Every call goes through the memo, so a
value does not depend on which calls came before it.

Evaluations are pure, and concurrent calls are safe: a race on the memo
only repeats work, and both sides compute the same values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dists import CoupledModel, SlowVaryLogPower
from .errors import InvalidParameter, QuadratureFailure
from .gammafn import exp_or_zero
from .quadrature import integrate_adaptive, panel_nodes

REL_TOL = 5e-13
# Successful calls take at most 64 panels on every preset's auto grid and
# 1,939 at the deepest bound (g = 1e-323); a failing call raises after at
# most MAX_PANELS, in milliseconds rather than seconds.
MAX_PANELS = 20_000

# Seed edges are points of one lattice, _EDGES_PER_DECADE per decade of y,
# down to 1e-323; fewer per decade leave layers to refinement rounds, each
# one more integrand pass.
_EDGES_PER_DECADE = 6
_LATTICE = np.array([10.0 ** (-j / _EDGES_PER_DECADE)
                     for j in range(323 * _EDGES_PER_DECADE + 1)])
# Seeds kept, by (model, depth), least recently used first out. exact-query's
# n in [2, 1e4] reach 165 (case, depth) pairs (tests/test_tooling.py checks
# that they fit) and a run's candidate grids at most 111. The deepest seed,
# g = 1e-323, is 248 KB, so a full memo holds at most about 64 MB.
_SEED_MEMO = 256


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


def _survival(m: CoupledModel, y: np.ndarray) -> np.ndarray:
    """H(g + (1 - g) y): the document survival at the channel quantile."""
    g = m.gbar_bound
    return m.doc.ccdf(m.channel.quantile_ccdf(g + (1.0 - g) * y))


def _depth(m: CoupledModel, n: int) -> int:
    """Lattice depth of n's seed: ceil(-6 log10(y0)), with y0 a quarter of
    min(1/n, g) (of 1/n when g = 0), at most the lattice's last point."""
    g = m.gbar_bound
    y0 = 0.25 * (min(1.0 / n, g) if g > 0.0 else 1.0 / n)
    return min(math.ceil(-_EDGES_PER_DECADE * math.log10(max(y0, _LATTICE[-1]))),
               len(_LATTICE) - 1)


@functools.lru_cache(maxsize=_SEED_MEMO)
def _seed(m: CoupledModel, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Panel edges in y from a lattice depth, and H at panel_nodes of their
    panels, raveled; both arrays are read-only, shared by every call.

    The edges are 0, then the lattice points from depth up to 1, plus the
    kink of a log_power ell where it lies in (0, 1).
    """
    edges = np.concatenate(([0.0], _LATTICE[depth::-1]))
    if isinstance(m.ell, SlowVaryLogPower):
        g = m.gbar_bound
        # a bound below the kink puts it at w <= g, outside the interval
        kink = (1.0 / m.ell.x_min - g) / (1.0 - g)
        if kink > 0.0 and kink not in edges:
            edges = np.insert(edges, np.searchsorted(edges, kink), kink)
    _, ys = panel_nodes(edges[:-1], edges[1:])
    h = _survival(m, ys.ravel())
    edges.flags.writeable = h.flags.writeable = False
    return edges, h


def ccdf_exact(m: CoupledModel, n: int) -> OracleResult:
    """Exact P[N_b > n] for one n (n = 0 returns exactly 1), to REL_TOL
    within MAX_PANELS panels."""
    if n < 0:
        raise InvalidParameter(f"n must be >= 0, got {n}")
    if n == 0:
        return OracleResult(0, 1.0, 0.0, 0, 0.0)

    edges, seed_h = _seed(m, _depth(m, n))
    # integrate_adaptive's first pass is over the seed nodes, in this order
    pending = [seed_h]

    def integrand(y: np.ndarray) -> np.ndarray:
        h = pending.pop() if pending else _survival(m, y)
        return np.exp((n - 1) * np.log1p(-y)) * h

    try:
        quad = integrate_adaptive(integrand, edges, rel_tol=REL_TOL, max_panels=MAX_PANELS)
    except QuadratureFailure as exc:
        raise QuadratureFailure(f"n={n}: {exc}") from exc
    if quad.value <= 0.0:
        raise QuadratureFailure(
            f"n={n}: nonpositive integral {quad.value} after {quad.panels} panels "
            f"and {quad.evaluations} evaluations")
    log_value = math.log(n) + n * math.log1p(-m.gbar_bound) + math.log(quad.value)
    value = exp_or_zero(log_value)
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
