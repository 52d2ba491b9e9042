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

H does not depend on n, and seed panels of different n are the same
lattice panels apart from the ones at 0 and at the kink. A SeedCache
holds H at the Kronrod nodes of each seed panel it has met, so a curve
evaluates H once per panel and each grid point's seed pass costs one
weight evaluation. A cache serves one model over one curve. A lone call
evaluates H at the same nodes in its first pass, so it returns the same
bits as inside a curve.

Evaluations are pure; concurrent evaluation over grid points is safe
with a cache per thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dists import CoupledModel, SlowVaryLogPower
from .errors import InvalidParameter, QuadratureFailure
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
    """Panel edges in y: 0, then the lattice points from depth
    ceil(-6 log10(y0)) up to 1, with y0 a quarter of min(1/n, g) (of 1/n
    when g = 0), plus the kink of a log_power ell where it lies in (0, 1).

    The lattice is fixed, so edges of different n and the panels between
    them coincide; that is what lets a SeedCache share H across a curve.
    """
    g = m.gbar_bound
    y0 = 0.25 * (min(1.0 / n, g) if g > 0.0 else 1.0 / n)
    depth = min(math.ceil(-_EDGES_PER_DECADE * math.log10(max(y0, _LATTICE[-1]))),
                len(_LATTICE) - 1)
    edges = np.concatenate(([0.0], _LATTICE[depth::-1]))
    if isinstance(m.ell, SlowVaryLogPower):
        # a bound below the kink puts it at w <= g, outside the interval
        kink = (1.0 / m.ell.x_min - g) / (1.0 - g)
        at = int(np.searchsorted(edges, kink))
        if kink > 0.0 and edges[at] != kink:
            edges = np.insert(edges, at, kink)
    return edges


def _survival(m: CoupledModel, y: np.ndarray) -> np.ndarray:
    """H(g + (1 - g) y): the document survival at the channel quantile."""
    g = m.gbar_bound
    return m.doc.ccdf(m.channel.quantile_ccdf(g + (1.0 - g) * y))


class SeedCache:
    """H at the Kronrod nodes of seed panels, keyed by the panel's (lo, hi).

    Holds one model's values for the length of one curve: ccdf_exact
    evaluates H only at panels the cache has not met. Grid points whose
    edges coincide share one assembled array.
    """

    def __init__(self, m: CoupledModel) -> None:
        self.model = m
        self._rows: dict[tuple[float, float], np.ndarray] = {}
        self._seeds: dict[bytes, np.ndarray] = {}

    def nodes_survival(self, edges: np.ndarray) -> np.ndarray:
        """H at panel_nodes of the panels between edges, raveled."""
        edge_key = edges.tobytes()
        h = self._seeds.get(edge_key)
        if h is None:
            lo, hi = edges[:-1], edges[1:]
            keys = list(zip(lo.tolist(), hi.tolist()))
            new = [i for i, key in enumerate(keys) if key not in self._rows]
            if new:
                _, ys = panel_nodes(lo[new], hi[new])
                rows = _survival(self.model, ys.ravel()).reshape(ys.shape)
                self._rows.update(zip([keys[i] for i in new], rows))
            h = self._seeds[edge_key] = np.concatenate([self._rows[key] for key in keys])
        return h


def ccdf_exact(m: CoupledModel, n: int, *,
               cache: Optional[SeedCache] = None) -> OracleResult:
    """Exact P[N_b > n] for one n (n = 0 returns exactly 1), to REL_TOL
    within MAX_PANELS panels.

    cache, a SeedCache of m, supplies H at the seed nodes. Without one, H
    is evaluated at the same nodes in the first integrand pass, which
    gives the same bits.
    """
    if n < 0:
        raise InvalidParameter(f"n must be >= 0, got {n}")
    if cache is not None and cache.model is not m:
        raise InvalidParameter("seed cache belongs to another model")
    if n == 0:
        return OracleResult(0, 1.0, 0.0, 0, 0.0)

    edges = _seed_edges(m, n)
    # integrate_adaptive's first pass is over the seed nodes, in this order
    pending = [] if cache is None else [cache.nodes_survival(edges)]

    def integrand(y: np.ndarray) -> np.ndarray:
        h = pending.pop() if pending else _survival(m, y)
        return np.exp((n - 1) * np.log1p(-y)) * h

    try:
        quad = integrate_adaptive(integrand, 0.0, 1.0, rel_tol=REL_TOL,
                                  max_panels=MAX_PANELS, initial_edges=edges)
    except QuadratureFailure as exc:
        raise QuadratureFailure(f"n={n}: {exc}") from exc
    if quad.value <= 0.0:
        raise QuadratureFailure(
            f"n={n}: nonpositive integral {quad.value} after {quad.panels} panels "
            f"and {quad.evaluations} evaluations")
    log_value = math.log(n) + n * math.log1p(-m.gbar_bound) + math.log(quad.value)
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
    cache = SeedCache(m)
    for n in grid:
        res = ccdf_exact(m, int(n), cache=cache)
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
