"""Adaptive Gauss-Kronrod integrator checks."""

import math
import re

import numpy as np
import pytest

from retxdist.errors import QuadratureFailure
from retxdist.quadrature import integrate_adaptive


def _panels(a, b):
    """Edges of eight equal starting panels on [a, b]."""
    return np.linspace(a, b, 9)


def test_smooth_exponential():
    r = integrate_adaptive(lambda x: np.exp(-x), _panels(0.0, 10.0), rel_tol=1e-12,
                           max_panels=1_000_000)
    assert r.value == pytest.approx(1.0 - math.exp(-10.0), rel=1e-12)
    assert r.abs_err <= 1e-12 * r.value


def test_mild_endpoint_singularity():
    r = integrate_adaptive(lambda x: np.sqrt(x), _panels(0.0, 1.0), rel_tol=1e-12,
                           max_panels=1_000_000)
    assert r.value == pytest.approx(2.0 / 3.0, rel=1e-11)


def test_sharply_peaked_integrand():
    # (1 - u)^n concentrates at u = 0 with width ~1/n
    n = 250_000
    r = integrate_adaptive(lambda u: (1.0 - u) ** n, _panels(0.0, 1.0), rel_tol=1e-12,
                           max_panels=1_000_000)
    assert r.value == pytest.approx(1.0 / (n + 1), rel=1e-10)
    assert r.panels > 8


def test_panel_budget_exhaustion():
    n = 250_000
    with pytest.raises(QuadratureFailure):
        integrate_adaptive(lambda u: (1.0 - u) ** n, _panels(0.0, 1.0),
                           rel_tol=1e-12, max_panels=9)


def test_stall_names_its_spend():
    # an integrable x^(-1/2) singularity inside the interval: the panels
    # around it reach machine width before the error target
    c = 0.3

    def f(x):
        d = np.abs(x - c)
        return np.where(d > 0.0, 1.0 / np.sqrt(np.maximum(d, 1e-300)), 0.0)

    with pytest.raises(QuadratureFailure) as info:
        integrate_adaptive(f, _panels(0.0, 1.0), rel_tol=1e-12, max_panels=1_000_000)
    spent = re.fullmatch(r"error \S+ stalled at machine panel width \(target \S+\) "
                         r"after (\d+) panels and (\d+) evaluations", str(info.value))
    assert spent is not None, str(info.value)
    panels, evaluations = int(spent[1]), int(spent[2])
    assert panels > 8 and evaluations % 15 == 0 and evaluations >= 15 * panels


def test_inverted_interval_rejected():
    with pytest.raises(QuadratureFailure, match="edges must ascend"):
        integrate_adaptive(lambda x: x, [1.0, 0.0], rel_tol=1e-12, max_panels=100)
