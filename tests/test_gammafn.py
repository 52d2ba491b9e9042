"""Incomplete-Gamma evaluator checks.

Expected values marked 'precomputed' were derived before the build by
adaptive quadrature of the defining integral (independently of this
implementation) and frozen here.
"""

import math

import numpy as np
import pytest

from retxdist import gammafn as gf
from retxdist.errors import GammaOverflowError, InvalidParameter

# int_2^inf e^-z z^-0.5 dz, precomputed by adaptive quadrature to 1e-13.
G_2_HALF = 0.08064711796031795


class TestCompleteGamma:
    def test_classical_values(self):
        assert gf.gamma(1.0) == pytest.approx(1.0, rel=1e-12)
        assert gf.gamma(3.0) == pytest.approx(2.0, rel=1e-12)
        assert gf.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_relative_error_across_domain(self):
        for a in np.linspace(0.05, 169.5, 200):
            ref = math.gamma(float(a))
            assert gf.gamma(float(a)) == pytest.approx(ref, rel=1e-12)

    def test_log_gamma_matches(self):
        for a in [0.1, 0.5, 1.0, 7.3, 42.0, 170.0]:
            assert gf.log_gamma(a) == pytest.approx(math.lgamma(a), abs=1e-11)

    @pytest.mark.parametrize("alpha", [10.0 ** -k for k in (1, 4, 8, 12, 15, 16, 17, 30,
                                                          100, 200, 300)]
                             + [0.3499, 0.35, 0.3501])
    def test_small_alpha(self, alpha):
        # alpha - 1 rounds alpha's digits away below about 1e-8 and is -1
        # below 1.1e-16; Gamma(alpha + 1) / alpha keeps them
        assert gf.gamma(alpha) == pytest.approx(math.gamma(alpha), rel=2e-15)
        assert gf.log_gamma(alpha) == pytest.approx(math.lgamma(alpha), rel=2e-15)

    def test_overflow_guard(self):
        with pytest.raises(GammaOverflowError):
            gf.gamma(170.5)
        with pytest.raises(InvalidParameter):
            gf.gamma(0.0)
        with pytest.raises(InvalidParameter):
            gf.gamma(-2.0)


class TestUpperIncomplete:
    def test_at_zero_is_complete(self):
        assert gf.upper_incomplete_gamma(0.0, 3.0) == pytest.approx(2.0, rel=1e-12)

    def test_alpha_one_is_exponential(self):
        assert gf.upper_incomplete_gamma(1.0, 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-12)

    def test_precomputed_quadrature_value(self):
        assert gf.upper_incomplete_gamma(2.0, 0.5) == pytest.approx(
            G_2_HALF, rel=1e-12)

    def test_closed_forms_on_grid(self):
        for x in np.linspace(0.01, 50.0, 120):
            assert gf.upper_incomplete_gamma(float(x), 1.0) == pytest.approx(
                math.exp(-x), rel=1e-12)
            assert gf.upper_incomplete_gamma(float(x), 2.0) == pytest.approx(
                (1.0 + x) * math.exp(-x), rel=1e-12)

    def test_recurrence(self):
        # G(x, a+1) = a G(x, a) + x^a e^-x
        for alpha in (0.5, 1.0, 2.5):
            for x in np.geomspace(0.01, 50.0, 60):
                lhs = gf.upper_incomplete_gamma(float(x), alpha + 1.0)
                rhs = alpha * gf.upper_incomplete_gamma(float(x), alpha) \
                    + x ** alpha * math.exp(-x)
                assert lhs == pytest.approx(rhs, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
    def test_strictly_decreasing_in_x(self, alpha):
        xs = np.linspace(0.0, 40.0, 100)
        vals = [gf.upper_incomplete_gamma(float(x), alpha) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_method_switch(self):
        assert gf.upper_incomplete_gamma_eval(2.0, 4.0).method is gf.Method.SERIES
        assert gf.upper_incomplete_gamma_eval(6.0, 4.0).method is \
            gf.Method.CONTINUED_FRACTION

    def test_underflow_policy(self):
        ev = gf.upper_incomplete_gamma_eval(800.0, 1.0)
        assert ev.value == 0.0
        assert ev.est_rel_err == 1.0

    def test_domain_errors(self):
        with pytest.raises(InvalidParameter):
            gf.upper_incomplete_gamma(-1.0, 1.0)
        with pytest.raises(GammaOverflowError):
            gf.upper_incomplete_gamma(1.0, 200.0)


class TestLogVariant:
    def test_matches_linear_in_range(self):
        for alpha in (0.5, 1.0, 2.0, 4.0):
            for x in (0.0, 0.5, 3.0, 30.0, 200.0):
                lin = gf.upper_incomplete_gamma(x, alpha)
                assert gf.log_upper_incomplete_gamma(x, alpha) == pytest.approx(
                    math.log(lin), rel=1e-12)

    def test_deep_tail(self):
        # G(x, 1) = e^-x exactly, far past linear underflow
        assert gf.log_upper_incomplete_gamma(5000.0, 1.0) == pytest.approx(
            -5000.0, rel=1e-12)

    def test_regularized_pair(self):
        for x in (0.3, 3.0, 12.0):
            total = gf.regularized_lower_gamma(x, 2.5) \
                + gf.regularized_upper_gamma(x, 2.5)
            assert total == pytest.approx(1.0, rel=1e-12)


class TestAsymptoticExpansion:
    def test_exact_for_integer_alpha_two(self):
        # with alpha = 2 the 2-term expansion is the exact closed form
        assert gf.incomplete_gamma_asymptotic(50.0, 2.0, 2) == pytest.approx(
            51.0 * math.exp(-50.0), rel=1e-13)

    def test_first_term_alpha_one(self):
        assert gf.incomplete_gamma_asymptotic(5.0, 1.0, 1) == pytest.approx(
            math.exp(-5.0), rel=1e-13)

    def test_close_to_converged_at_large_x(self):
        ref = gf.upper_incomplete_gamma(20.0, 4.0)
        approx = gf.incomplete_gamma_asymptotic(20.0, 4.0, 4)
        assert approx == pytest.approx(ref, rel=1e-3)

    def test_error_decreases_in_x(self):
        errs = []
        for x in (10.0, 20.0, 40.0, 80.0):
            ref = gf.upper_incomplete_gamma(x, 3.5)
            approx = gf.incomplete_gamma_asymptotic(x, 3.5, 3)
            errs.append(abs(approx - ref) / ref)
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_term_cap_at_floor_x(self):
        # the divergent series is truncated at floor(x) terms
        assert gf.incomplete_gamma_asymptotic(2.5, 4.0, 50) == \
            gf.incomplete_gamma_asymptotic(2.5, 4.0, 2)

    def test_bad_terms(self):
        with pytest.raises(InvalidParameter):
            gf.incomplete_gamma_asymptotic(5.0, 1.0, 0)
