"""Exact-CCDF quadrature checks.

The oracle is validated against routes it does not share code with: the
uniform-transform identity (unbounded unit-index models), the
integer-index finite sum, and Monte Carlo.
"""

import math

import pytest

from conftest import model_1a, model_3, model_4
from retxdist import oracle
from retxdist.asym import ApproxParams, exact_integer_ccdf, log_exact_integer_ccdf
from retxdist.errors import InvalidParameter, QuadratureFailure
from retxdist.mc import empirical_ccdf, run_tally
from retxdist.oracle import ccdf_exact, ccdf_exact_curve


class TestPointValues:
    def test_n_zero_is_exactly_one(self, exp_pair_unbounded):
        res = ccdf_exact(exp_pair_unbounded, 0)
        assert res.value == 1.0
        assert res.est_abs_err == 0.0

    def test_unbounded_unit_index_harmonic(self, exp_pair_unbounded):
        # matched laws, no bound: P[N > n] = 1/(n+1) by uniformity of F(L)
        for n in (1, 2, 9, 40):
            res = ccdf_exact(exp_pair_unbounded, n)
            assert res.value == pytest.approx(1.0 / (n + 1), rel=1e-10)

    def test_matches_integer_index_sum(self, exp_pair_b2):
        p = ApproxParams.from_model(exp_pair_b2)
        for n in (1, 10, 100):
            res = ccdf_exact(exp_pair_b2, n)
            assert res.value == pytest.approx(exact_integer_ccdf(p, n), rel=1e-8)

    def test_error_estimate_contract(self, exp_pair_b2):
        for n in (1, 7, 60, 400):
            res = ccdf_exact(exp_pair_b2, n)
            assert res.est_abs_err <= 1e-12 * max(res.value, 1e-300)

    def test_evaluation_count(self, exp_pair_b2):
        res = ccdf_exact(exp_pair_b2, 10)
        assert res.evaluations >= 15 * res.subdivisions
        assert res.evaluations % 15 == 0
        assert ccdf_exact(exp_pair_b2, 0).evaluations == 0

    def test_negative_n_rejected(self, exp_pair_b2):
        with pytest.raises(InvalidParameter):
            ccdf_exact(exp_pair_b2, -1)


class TestDeepTail:
    def test_log_value_matches_closed_form(self, exp_pair_b1):
        # far below float underflow: compare log scales
        p = ApproxParams.from_model(exp_pair_b1)
        for n in (2_000, 10_000):
            res = ccdf_exact(exp_pair_b1, n)
            assert res.value == 0.0
            assert res.log_value == pytest.approx(
                log_exact_integer_ccdf(p, n), rel=1e-10)

    def test_linear_and_log_agree_in_range(self, exp_pair_b2):
        res = ccdf_exact(exp_pair_b2, 30)
        assert math.log(res.value) == pytest.approx(res.log_value, rel=1e-12)

    def test_cusp_at_zero_resolved(self):
        # example3 k2_b8: alpha = 4 puts a v^(1/4) cusp at v = 0 that needs
        # panels narrower than any absolute width floor
        m = model_3(2.0, 2.0)
        p = ApproxParams.from_model(m)
        logs = [ccdf_exact(m, n).log_value for n in (178, 1_000, 10_000)]
        assert all(math.isfinite(v) for v in logs)
        assert logs[0] > logs[1] > logs[2]
        for n, v in zip((178, 1_000, 10_000), logs):
            assert v == pytest.approx(log_exact_integer_ccdf(p, n), rel=1e-10)


class TestCurves:
    def test_basic_curve(self, exp_pair_unbounded):
        out = ccdf_exact_curve(exp_pair_unbounded, [0, 1, 2])
        assert [r.value for r in out] == pytest.approx([1.0, 0.5, 1.0 / 3.0],
                                                       rel=1e-10)

    def test_strictly_decreasing(self, exp_pair_b1):
        out = ccdf_exact_curve(exp_pair_b1, range(1, 101))
        vals = [r.value for r in out]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_gamma_doc_curve_smoke(self):
        m = model_4(2.0)
        grid = sorted(set(int(round(10 ** (k / 8))) for k in range(0, 33)))
        out = ccdf_exact_curve(m, grid)
        logs = [r.log_value for r in out]
        assert all(math.isfinite(v) for v in logs)
        assert all(b <= a for a, b in zip(logs, logs[1:]))
        # and the values are what simulation sees, to Monte Carlo accuracy
        samples = 200_000
        tally = run_tally(m, grid, samples, seed=808)
        for res, k in zip(out, tally.exceed_counts):
            if res.value * samples < 25:
                continue
            sigma = math.sqrt(res.value * (1 - res.value) / samples)
            assert abs(k / samples - res.value) <= 3 * sigma

    def test_grid_must_increase(self, exp_pair_b1):
        with pytest.raises(InvalidParameter):
            ccdf_exact_curve(exp_pair_b1, [1, 1, 2])

    def test_stop_below_evaluates_one_point_past(self, exp_pair_b1, monkeypatch):
        seen = []

        def counted(m, n, **kw):
            seen.append(n)
            return ccdf_exact(m, n, **kw)

        monkeypatch.setattr(oracle, "ccdf_exact", counted)
        out = ccdf_exact_curve(exp_pair_b1, range(1, 10_000), stop_below=1e-3)
        assert out[-1].value >= 1e-3
        assert seen == [r.n for r in out] + [out[-1].n + 1]
        assert ccdf_exact(exp_pair_b1, out[-1].n + 1).value < 1e-3

    def test_stop_below_keeps_the_first_point(self, exp_pair_b1):
        out = ccdf_exact_curve(exp_pair_b1, [5, 6, 7], stop_below=2.0)
        assert [r.n for r in out] == [5]


class TestInvariants:
    @pytest.mark.parametrize("model_fn,bound", [(model_1a, 1.0), (model_4, 2.0)])
    def test_geometric_mixture_ratio_bound(self, model_fn, bound):
        # successive ratios cannot exceed the best per-attempt survival 1 - Gbar(b)
        m = model_fn(bound)
        top = 1.0 - m.gbar_bound()
        prev = ccdf_exact(m, 1)
        for n in range(2, 40):
            cur = ccdf_exact(m, n)
            ratio = cur.value / prev.value
            assert 0.0 < ratio <= top + 1e-12
            prev = cur

    def test_monte_carlo_agreement(self, exp_pair_b2):
        samples = 1_000_000
        grid = sorted(set(int(round(10 ** (k / 24))) for k in range(0, 40)))
        tally = run_tally(exp_pair_b2, grid, samples, seed=909)
        value, _, _ = empirical_ccdf(tally)
        for n, v in zip(grid, value):
            exact = ccdf_exact(exp_pair_b2, n).value
            if exact < 10 / samples:
                continue
            sigma = math.sqrt(exact * (1 - exact) / samples)
            assert abs(v - exact) <= 4 * sigma

    def test_failure_on_tiny_budget(self, exp_pair_b1):
        with pytest.raises(QuadratureFailure):
            ccdf_exact(exp_pair_b1, 100_000, max_panels=9)

    def test_failure_names_n(self, exp_pair_b1, monkeypatch):
        def spent(*args, **kwargs):
            raise QuadratureFailure("budget spent")

        monkeypatch.setattr(oracle, "integrate_adaptive", spent)
        with pytest.raises(QuadratureFailure, match=r"^n=74989: budget spent$"):
            ccdf_exact(exp_pair_b1, 74989)
