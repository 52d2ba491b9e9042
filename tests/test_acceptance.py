"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. The
criteria are implemented exactly at their stated tolerances; two of them
(03: closed-form accuracy at small bounds, 06: log-scale ratio band) are
known to be unattainable for the model family itself, not for this
implementation, and fail honestly with the measured numbers in the
assertion message.
"""

import math
import time

import numpy as np
import pytest

from conftest import ks_statistic_uniform, ks_two_sample_ints, model_1a
from retxdist import asym, gammafn
from retxdist.asym import ApproxParams
from retxdist.dists import (
    CoupledModel,
    Exponential,
    Gamma,
    SlowVaryOne,
    Weibull,
)
from retxdist.experiment import build_model, candidate_grid, log_grid, preset
from retxdist.mc import (
    RandomStream,
    empirical_ccdf,
    run_tally,
    sample_N_batch,
    sample_N_naive,
)
from retxdist.oracle import ccdf_exact

_ORACLE_CACHE: dict = {}


def oracle_log(model_key, model, n):
    key = (model_key, n)
    if key not in _ORACLE_CACHE:
        _ORACLE_CACHE[key] = ccdf_exact(model, n)
    return _ORACLE_CACHE[key]


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")


def preset_cases(name):
    cfg = preset(name)
    for label, channel, doc_base, bound in cfg.cases():
        model = build_model(channel, doc_base, cfg.alpha, cfg.ell, bound)
        yield cfg, label, model


def test_criterion_01_integer_index_equivalence():
    """Integer-index closed form vs quadrature, 1e-8 relative, n up to 1e3."""
    t0 = time.time()
    worst = 0.0
    where = None
    for alpha in (1.0, 2.0, 3.0):
        for bound in (1.0, 2.0, 4.0):
            m = CoupledModel.parametric(Exponential(1.0), Exponential(alpha),
                                        alpha, SlowVaryOne(), bound)
            p = ApproxParams.from_model(m)
            for n in range(1, 1001):
                res = ccdf_exact(m, n)
                closed = asym.log_exact_integer_ccdf(p, n)
                err = abs(math.expm1(res.log_value - closed))
                if err > worst:
                    worst, where = err, (alpha, bound, n)
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    report(1, "integer-index equivalence", ok,
           f"max rel err {worst:.3e} at {where}, runtime {elapsed:.1f}s")
    assert worst <= 1e-8, (worst, where)
    assert elapsed < 60.0


def test_criterion_02_monte_carlo_validity():
    """Oracle inside the 99% Wilson CI at >= 97% of well-sampled grid points."""
    t0 = time.time()
    samples = 10_000_000
    hits = checked = 0
    for cfg, label, model in preset_cases("example1a"):
        grid = [n for n in candidate_grid(cfg, model)
                if oracle_log(("1a", label), model, n).value * samples >= 100]
        tally = run_tally(model, grid, samples, seed=cfg.seed)
        _, ci_lo, ci_hi = empirical_ccdf(tally, confidence=0.99)
        for n, lo, hi in zip(grid, ci_lo, ci_hi):
            exact = oracle_log(("1a", label), model, n).value
            checked += 1
            hits += lo <= exact <= hi
    coverage = hits / checked
    elapsed = time.time() - t0
    ok = coverage >= 0.97 and elapsed < 600.0
    report(2, "Monte Carlo validity", ok,
           f"coverage {hits}/{checked} = {coverage:.3f} at 1e7 samples, "
           f"runtime {elapsed:.1f}s")
    assert coverage >= 0.97
    assert elapsed < 600.0


@pytest.mark.parametrize("name,tol", [("example1a", 0.10), ("example1b", 0.10),
                                      ("example4", 0.15)])
def test_criterion_03_uniform_approximation_accuracy(name, tol):
    """Closed-form curve vs oracle, n >= 10 and oracle >= 1e-6.

    Stated tolerances: 10% (exponential pairs), 15% (gamma documents).
    Known unattainable at the smaller bounds: the approximation's own
    finite-bound error exceeds them; see the decisions ledger.
    """
    t0 = time.time()
    worst = 0.0
    where = None
    for cfg, label, model in preset_cases(name):
        p = ApproxParams.from_model(model)
        for n in candidate_grid(cfg, model):
            if n < 10:
                continue
            exact = oracle_log((name, label), model, n)
            if exact.value < 1e-6:
                continue
            approx = asym.uniform_approx(p, n)
            err = abs(approx - exact.value) / exact.value
            if err > worst:
                worst, where = err, (label, n)
    elapsed = time.time() - t0
    ok = worst <= tol
    report(3, f"uniform approximation accuracy ({name})", ok,
           f"max rel err {worst:.4f} (tolerance {tol}) at {where}, "
           f"runtime {elapsed:.1f}s")
    assert elapsed < 120.0
    assert worst <= tol, (
        f"{name}: max rel err {worst:.4f} at {where} exceeds {tol}; "
        "the closed form's finite-bound error itself exceeds the stated "
        'tolerance (see README "Tests")')


def test_criterion_04_power_law_limit():
    """Scaled tail approaches Gamma(alpha+1) as n grows with n Gbar fixed."""
    t0 = time.time()
    target = gammafn.gamma(3.0)
    devs = []
    for n in (100, 1_000, 10_000, 100_000):
        gbar = 0.01 / n
        bound = -math.log(gbar)
        m = CoupledModel.parametric(Exponential(1.0), Exponential(2.0), 2.0,
                                    SlowVaryOne(), bound)
        exact = ccdf_exact(m, n).value
        devs.append(abs(exact * n ** 2 - target) / target)
    elapsed = time.time() - t0
    decreasing = all(b < a for a, b in zip(devs, devs[1:]))
    ok = decreasing and devs[-1] <= 0.05 and elapsed < 60.0
    report(4, "power-law limit", ok,
           f"deviations {[f'{d:.2e}' for d in devs]}, runtime {elapsed:.1f}s")
    assert decreasing, devs
    assert devs[-1] <= 0.05
    assert elapsed < 60.0


def test_criterion_05_geometric_tail_onset():
    """Fixed-bound tail asymptote within 20% past twice the heuristic onset."""
    t0 = time.time()
    worst = 0.0
    where = None
    for cfg, label, model in preset_cases("example1a"):
        p = ApproxParams.from_model(model)
        tr = asym.transition_point(p)
        for n in candidate_grid(cfg, model):
            if n < 2.0 * tr.n_heuristic:
                continue
            exact = oracle_log(("1a", label), model, n)
            err = abs(math.expm1(asym.log_exp_tail_asymptote(p, n)
                                 - exact.log_value))
            if err > worst:
                worst, where = err, (label, n)
    heuristics_exact = all(
        asym.transition_point(ApproxParams.from_model(model)).n_heuristic
        == pytest.approx(2.0 * math.e ** bound, rel=1e-15)
        for bound in (1.0, 2.0, 4.0)
        for model in (model_1a(bound),))
    elapsed = time.time() - t0
    ok = worst <= 0.20 and heuristics_exact
    report(5, "geometric-tail onset", ok,
           f"max rel err {worst:.4f} at {where}, heuristics exact: "
           f"{heuristics_exact}, runtime {elapsed:.1f}s")
    assert worst <= 0.20, (worst, where)
    assert heuristics_exact


def test_criterion_06_log_scale_ratio():
    """Log-scale body ratio within 0.15 on [1e2, 1e4]; bound-4 max below
    bound-2 max.

    Known unattainable: the measured maximum at bound 4 is ~0.155 (at the
    transition region) and exceeds the bound-2 maximum; see the ledger.
    """
    t0 = time.time()
    grid = [n for n in log_grid(100, 10_000, 24)]
    maxima = {}
    for bound in (2.0, 4.0):
        m = model_1a(bound)
        p = ApproxParams.from_model(m)
        worst = 0.0
        where = None
        for n in grid:
            res = oracle_log(("c6", f"b{bound:g}"), m, n)
            dev = abs(res.log_value / asym.log_body(p, n) - 1.0)
            if dev > worst:
                worst, where = dev, n
        maxima[bound] = (worst, where)
    elapsed = time.time() - t0
    within = maxima[4.0][0] <= 0.15
    decreasing = maxima[4.0][0] < maxima[2.0][0]
    ok = within and decreasing
    report(6, "log-scale ratio", ok,
           f"max dev b=2: {maxima[2.0][0]:.4f} @n={maxima[2.0][1]}, "
           f"b=4: {maxima[4.0][0]:.4f} @n={maxima[4.0][1]}, "
           f"runtime {elapsed:.1f}s")
    assert within and decreasing, (
        f"b=4 max dev {maxima[4.0][0]:.4f} (limit 0.15), b=2 max "
        f"{maxima[2.0][0]:.4f}; the handover region of the wider bound "
        "peaks higher, so the stated ordering cannot hold "
        '(see README "Tests")')


def test_criterion_07_log_upper_bound():
    """A grid onset n0 <= 1e3 exists past which the deflated log body
    bounds the exact log tail up to 1e4, for every bound."""
    t0 = time.time()
    details = []
    ok_all = True
    for cfg, label, model in preset_cases("example1a"):
        p = ApproxParams.from_model(model)
        grid = [n for n in log_grid(2, 10_000, 24)]
        holds = [oracle_log(("c7", label), model, n).log_value
                 <= asym.log_upper_bound(p, n, 0.2) for n in grid]
        n0 = None
        for i in range(len(grid)):
            if all(holds[i:]):
                n0 = grid[i]
                break
        details.append(f"{label}: n0={n0}")
        ok_all = ok_all and n0 is not None and n0 <= 1000
    elapsed = time.time() - t0
    report(7, "log-scale upper bound", ok_all,
           f"{', '.join(details)}, runtime {elapsed:.1f}s")
    assert ok_all, details


def test_criterion_08_incomplete_gamma_suite():
    """Closed forms at 1e-12, recurrence at 1e-9, expansion at 1e-3."""
    t0 = time.time()
    closed_ok = all(
        abs(gammafn.upper_incomplete_gamma(x, 1.0) - math.exp(-x))
        <= 1e-12 * math.exp(-x)
        and abs(gammafn.upper_incomplete_gamma(x, 2.0) - (1 + x) * math.exp(-x))
        <= 1e-12 * (1 + x) * math.exp(-x)
        for x in np.linspace(0.01, 50.0, 200))
    rec_ok = True
    for alpha in (0.5, 1.0, 2.5):
        for x in np.geomspace(0.01, 50.0, 80):
            lhs = gammafn.upper_incomplete_gamma(float(x), alpha + 1.0)
            rhs = alpha * gammafn.upper_incomplete_gamma(float(x), alpha) \
                + x ** alpha * math.exp(-x)
            rec_ok = rec_ok and abs(lhs - rhs) <= 1e-9 * rhs
    exp_ok = True
    for alpha in (0.5, 1.0, 2.0, 3.0, 4.0):
        for x in (20.0, 35.0, 60.0, 120.0):
            ref = gammafn.upper_incomplete_gamma(x, alpha)
            approx = gammafn.incomplete_gamma_asymptotic(x, alpha, 8)
            exp_ok = exp_ok and abs(approx - ref) <= 1e-3 * ref
    elapsed = time.time() - t0
    ok = closed_ok and rec_ok and exp_ok
    report(8, "incomplete-Gamma suite", ok,
           f"closed forms {closed_ok}, recurrence {rec_ok}, "
           f"expansion {exp_ok}, runtime {elapsed:.1f}s")
    assert closed_ok and rec_ok and exp_ok


def test_criterion_09_cdf_transform_uniformity():
    """F(L) is uniform: KS below the 95% band at 1e6 samples per family."""
    t0 = time.time()
    band = 1.95 / math.sqrt(1_000_000)
    stats = {}
    rng = RandomStream(20260809)
    for law in (Exponential(2.0), Weibull(0.5, 16.0), Gamma(2.0, 2.0)):
        xs = law.quantile_ccdf(rng.uniforms(1_000_000))
        stats[law.family] = ks_statistic_uniform(np.asarray(law.cdf(xs)))
    elapsed = time.time() - t0
    ok = all(v < band for v in stats.values())
    report(9, "CDF-transform uniformity", ok,
           f"KS {', '.join(f'{k}={v:.5f}' for k, v in stats.items())} "
           f"(band {band:.5f}), runtime {elapsed:.1f}s")
    assert all(v < band for v in stats.values()), stats


def test_criterion_10_sampler_equivalence():
    """Geometric fast path vs literal retry loop: two-sample KS at 1e5."""
    t0 = time.time()
    m = model_1a(1.0)
    n = 100_000
    rng = RandomStream(20260810)
    fast = sample_N_batch(m, rng, n)
    naive = np.fromiter((sample_N_naive(m, rng, 100_000).count for _ in range(n)),
                        dtype=np.int64, count=n)
    d = ks_two_sample_ints(fast, naive)
    band = 1.95 * math.sqrt(2.0 / n)
    elapsed = time.time() - t0
    ok = d < band
    report(10, "sampler equivalence", ok,
           f"two-sample KS {d:.5f} (band {band:.5f}), runtime {elapsed:.1f}s")
    assert d < band
