"""Shared fixtures and statistical helpers for the test suite."""

import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from retxdist.dists import (
    CoupledModel,
    Exponential,
    Gamma,
    SlowVaryGammaDoc,
    SlowVaryLogPower,
    SlowVaryOne,
    Weibull,
    derive_doc_law,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def ks_statistic(samples, cdf):
    """One-sample Kolmogorov-Smirnov statistic against a callable CDF."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    f = np.asarray(cdf(xs), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def ks_statistic_uniform(samples):
    return ks_statistic(samples, lambda x: np.clip(x, 0.0, 1.0))


def ks_two_sample_ints(a, b):
    """Two-sample KS statistic for integer-valued samples."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    support = np.union1d(a, b)
    fa = np.searchsorted(np.sort(a), support, side="right") / len(a)
    fb = np.searchsorted(np.sort(b), support, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def model_1a(bound):
    """Exponential(2) documents on an Exponential(1) channel; index 2."""
    return CoupledModel.parametric(Exponential(1.0), Exponential(2.0),
                                   2.0, SlowVaryOne(), bound)


def model_1b(bound):
    """Exponential(1) documents on an Exponential(2) channel; index 0.5."""
    return CoupledModel.parametric(Exponential(2.0), Exponential(1.0),
                                   0.5, SlowVaryOne(), bound)


def model_3(index, chan_scale, bound=8.0):
    """Matched-index Weibull pair with alpha = (chan_scale / 1)^index."""
    return CoupledModel.parametric(Weibull(index, chan_scale),
                                   Weibull(index, 1.0),
                                   chan_scale ** index, SlowVaryOne(), bound)


def model_4(bound):
    """Gamma(2, 2) documents on an Exponential(2) channel; exact ell."""
    return CoupledModel.parametric(Exponential(2.0), Gamma(2.0, 2.0), 1.0,
                                   SlowVaryGammaDoc(2.0, 2.0, 2.0), bound)


def model_log_power(bound):
    """Derived documents on a Weibull(0.5, 1) channel; alpha 1.5 and
    ell(y) = log y, clamped below y = e."""
    return derive_doc_law(Weibull(0.5, 1.0), 1.5, SlowVaryLogPower(1.0, 1.0), bound)


@pytest.fixture(scope="session")
def exp_pair_b1():
    return model_1a(1.0)


@pytest.fixture(scope="session")
def exp_pair_b2():
    return model_1a(2.0)


@pytest.fixture(scope="session")
def exp_pair_unbounded():
    return CoupledModel.parametric(Exponential(1.0), Exponential(1.0),
                                   1.0, SlowVaryOne(), math.inf)


@pytest.fixture
def perfbench(monkeypatch):
    """Import perfbench modules by name, read-only: no bytecode is written
    into perfbench/, and the modules are dropped again afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = []

    def load(name):
        loaded.append(name)
        return importlib.import_module(name)

    yield load
    for name in loaded:
        sys.modules.pop(name, None)
