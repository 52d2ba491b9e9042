"""Adaptive Gauss-Kronrod panel integration.

A 7/15-point Gauss-Kronrod pair with adaptive panel halving. Two design
points matter for the tail integrals this package computes:

- panels are split in batches (every panel whose error estimate exceeds
  its fair share of the target), so each refinement round costs a single
  vectorized integrand call instead of one call per panel;
- the caller gives the starting panel edges. Boundary-layer integrands
  (mass in a region a tiny fraction of the domain wide) are invisible to
  uniformly spaced starting panels, which would converge to zero
  instantly; geometric seed edges keep every layer scale sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureFailure

# Kronrod-15 abscissae on [-1, 1] (nonnegative half) with Kronrod weights,
# plus the embedded Gauss-7 weights.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277,
    0.381830050505119, 0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:7], _XGK[::-1]])          # 15 ascending nodes
_W_KRONROD = np.concatenate([_WGK[:7], _WGK[::-1]])
_W_GAUSS = np.zeros(15)
_W_GAUSS[1:14:2] = np.concatenate([_WG[:3], _WG[::-1]])   # Gauss points interleave

# The error target's floor for integrals that are 0 or nearly so.
_ABS_FLOOR = 1e-320


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_err: float
    panels: int
    evaluations: int


def panel_nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-widths of the panels [lo, hi] and their 15 Kronrod nodes, one
    ascending row per panel."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return half, mid[:, None] + half[:, None] * _NODES[None, :]


def _eval_panels(f: Callable[[np.ndarray], np.ndarray],
                 lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod value and |K - G| error estimate for a batch of panels."""
    half, xs = panel_nodes(lo, hi)
    ys = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    k = half * (ys @ _W_KRONROD)
    g = half * (ys @ _W_GAUSS)
    return k, np.abs(k - g)


def integrate_adaptive(f: Callable[[np.ndarray], np.ndarray], edges: Sequence[float], *,
                       rel_tol: float, max_panels: int) -> QuadResult:
    """Integrate f from edges[0] to edges[-1] to a relative error target.

    Starts from the panels between edges and refines until the summed
    error estimate falls below max(rel_tol * |integral|, _ABS_FLOOR). f is
    called once per pass with a flat array of nodes; the first call gets
    panel_nodes of the starting panels, raveled, so a caller may supply
    values it already holds for them. Raises QuadratureFailure when the
    edges do not ascend, when max_panels is exhausted, or when no
    offending panel can be split further; the last two messages give the
    panels and evaluations spent.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise QuadratureFailure("panel edges must ascend")
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _eval_panels(f, lo, hi)
    evaluations = 15 * len(lo)

    while True:
        total = float(vals.sum())
        total_err = float(errs.sum())
        target = max(rel_tol * abs(total), _ABS_FLOOR)
        if total_err <= target:
            return QuadResult(total, total_err, len(lo), evaluations)

        # split every panel holding more than a fair share of the budget
        share = target / (2.0 * len(lo))
        mask = errs > share
        if not mask.any():
            mask = errs >= errs.max()
        # relative floor: panels at a cusp near 0 keep splitting toward it
        splittable = (hi - lo) > 1e-15 * np.maximum(np.abs(lo), np.abs(hi))
        mask &= splittable
        if not mask.any():
            raise QuadratureFailure(
                f"error {total_err:.3e} stalled at machine panel width "
                f"(target {target:.3e}) after {len(lo)} panels and "
                f"{evaluations} evaluations")
        if len(lo) + int(mask.sum()) > max_panels:
            raise QuadratureFailure(
                f"error {total_err:.3e} above target after {len(lo)} panels and "
                f"{evaluations} evaluations")

        slo, shi = lo[mask], hi[mask]
        smid = 0.5 * (slo + shi)
        child_lo = np.concatenate([slo, smid])
        child_hi = np.concatenate([smid, shi])
        child_vals, child_errs = _eval_panels(f, child_lo, child_hi)
        evaluations += 15 * len(child_lo)

        keep = ~mask
        lo = np.concatenate([lo[keep], child_lo])
        hi = np.concatenate([hi[keep], child_hi])
        vals = np.concatenate([vals[keep], child_vals])
        errs = np.concatenate([errs[keep], child_errs])
