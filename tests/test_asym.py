"""Closed-form approximation checks against the quadrature oracle.

The frozen value for the bound-2 exponential pair at n = 10 was
precomputed independently before the build:
(1 - e^-4)^-1 * (2/100) * G(-10 log(1 - e^-2), 2) = 0.011679758806024376.
"""

import dataclasses
import math

import pytest

from conftest import model_1a, model_1b, model_4
from retxdist import asym
from retxdist.asym import ApproxParams
from retxdist.dists import SlowVaryGammaDoc, SlowVaryLogPower, SlowVaryOne
from retxdist.errors import (
    EllNotOne,
    InvalidParameter,
    NoRoot,
    NotInteger,
)
from retxdist.gammafn import gamma
from retxdist.oracle import ccdf_exact

UNIFORM_1A_B2_N10 = 0.011679758806024376


def params(alpha, gbar_b, F_b=1.0, ell=None):
    return ApproxParams(alpha, ell or SlowVaryOne(), gbar_b, F_b)


class TestUniformApprox:
    def test_reduces_to_power_law_for_unbounded_unit_index(self):
        p = params(1.0, 1e-12)
        for n in (1, 5, 50):
            assert asym.uniform_approx(p, n) == pytest.approx(1.0 / n, rel=1e-9)

    def test_frozen_value_bound_two(self):
        p = ApproxParams.from_model(model_1a(2.0))
        assert asym.uniform_approx(p, 10) == pytest.approx(UNIFORM_1A_B2_N10,
                                                           rel=1e-10)
        # matches the 6-digit rounded-argument evaluation too
        assert asym.uniform_approx(p, 10) == pytest.approx(0.011681, rel=2e-4)

    def test_within_ten_percent_of_oracle_deep_bound(self):
        m = model_1a(4.0)
        p = ApproxParams.from_model(m)
        exact = ccdf_exact(m, 100).value
        assert abs(asym.uniform_approx(p, 100) - exact) / exact <= 0.10

    def test_log_variant_matches(self):
        p = ApproxParams.from_model(model_1a(1.0))
        for n in (1, 10, 1000):
            lin = asym.uniform_approx(p, n)
            assert asym.log_uniform_approx(p, n) == pytest.approx(math.log(lin),
                                                                  rel=1e-12)

    def test_deep_tail_log_no_underflow(self):
        p = ApproxParams.from_model(model_1a(1.0))
        assert asym.uniform_approx(p, 10_000) == 0.0
        assert asym.log_uniform_approx(p, 10_000) < -4000.0

    def test_params_validation(self):
        with pytest.raises(InvalidParameter):
            params(2.0, 0.0)
        with pytest.raises(InvalidParameter):
            params(2.0, 1.0)
        with pytest.raises(InvalidParameter):
            params(-1.0, 0.5)
        with pytest.raises(InvalidParameter):
            asym.uniform_approx(params(2.0, 0.5), 0)


class TestPowerLawLimit:
    def test_integer_values(self):
        assert asym.power_law_limit(params(1.0, 0.5), 9) == pytest.approx(
            1.0 / 9.0, rel=1e-12)
        assert asym.power_law_limit(params(2.0, 0.5), 10) == pytest.approx(
            0.02, rel=1e-12)

    def test_uniform_converges_to_power_law(self):
        # agreement within 2 n Gbar(b) as the truncation influence vanishes
        m = model_1a(4.0)
        plain = dataclasses.replace(ApproxParams.from_model(m), F_b=1.0)
        n = 10
        drift = 2.0 * n * plain.gbar_b
        ratio = asym.uniform_approx(plain, n) / asym.power_law_limit(plain, n)
        assert abs(ratio - 1.0) <= drift


class TestExactInteger:
    def test_single_term_near_unbounded(self):
        p = params(1.0, 1e-15)
        for n in (0, 3, 9):
            assert asym.exact_integer_ccdf(p, n) == pytest.approx(
                1.0 / (n + 1), rel=1e-9)

    def test_matches_oracle(self, exp_pair_b1):
        p = ApproxParams.from_model(exp_pair_b1)
        exact = ccdf_exact(exp_pair_b1, 5).value
        assert asym.exact_integer_ccdf(p, 5) == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    def test_n_zero_telescopes_to_one(self, alpha):
        for g in (0.05, 0.3, 0.6):
            # consistent truncation mass: F_b = 1 - g^alpha
            p = params(alpha, g, F_b=1.0 - g ** alpha)
            assert asym.exact_integer_ccdf(p, 0) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_non_integer(self):
        with pytest.raises(NotInteger):
            asym.exact_integer_ccdf(params(0.5, 0.3), 5)

    def test_rejects_nontrivial_ell(self):
        p = params(2.0, 0.3, ell=SlowVaryLogPower(1.0, -1.0))
        with pytest.raises(EllNotOne):
            asym.exact_integer_ccdf(p, 5)


class TestExpTail:
    def test_unit_index_equals_exact_sum(self):
        p = params(1.0, 0.3, F_b=0.7)
        for n in (1, 10, 200):
            assert asym.exp_tail_asymptote(p, n) == pytest.approx(
                asym.exact_integer_ccdf(p, n), rel=1e-12)

    def test_within_fifteen_percent_past_transition(self, exp_pair_b1):
        p = ApproxParams.from_model(exp_pair_b1)
        exact = ccdf_exact(exp_pair_b1, 50).value
        assert abs(asym.exp_tail_asymptote(p, 50) - exact) / exact <= 0.15

    def test_ratio_to_exact_sum_tends_to_one(self, exp_pair_b1):
        p = ApproxParams.from_model(exp_pair_b1)
        log_ratio = asym.log_exp_tail_asymptote(p, 10_000) \
            - asym.log_exact_integer_ccdf(p, 10_000)
        assert abs(math.exp(log_ratio) - 1.0) <= 0.01

    def test_general_variant_regime_agreement(self):
        # uniform / general-ell tail in [0.8, 1.25], tightening as n Gbar grows
        devs = []
        for n_gbar in (20.0, 50.0):
            n = 1000
            p = params(2.0, n_gbar / n)
            ratio = math.exp(asym.log_uniform_approx(p, n)
                             - asym.log_exp_tail_general(p, n))
            assert 0.8 <= ratio <= 1.25
            devs.append(abs(ratio - 1.0))
        assert devs[1] < devs[0]

    def test_fixed_bound_variant_needs_trivial_ell(self):
        p = params(1.0, 0.1, ell=SlowVaryGammaDoc(2.0, 2.0, 2.0))
        with pytest.raises(EllNotOne):
            asym.exp_tail_asymptote(p, 10)
        assert asym.exp_tail_general(p, 10) > 0.0


class TestLogBody:
    def test_pure_power_law_regime(self):
        p = params(2.0, 1e-12)
        n = 100
        assert asym.log_body(p, n) == pytest.approx(-2.0 * math.log(n), rel=1e-9)

    def test_arithmetic(self):
        p = ApproxParams.from_model(model_1a(4.0))
        n = 100
        want = n * math.log1p(-math.exp(-4.0)) - 2.0 * math.log(n)
        assert asym.log_body(p, n) == pytest.approx(want, rel=1e-14)

    def test_oracle_log_ratio_band(self):
        # measured band: the ratio sits in [0.84, 1.0] on [1e2, 1e4] for
        # bounds 2 and 4 and tends to 1 in the far tail
        for bound in (2.0, 4.0):
            m = model_1a(bound)
            p = ApproxParams.from_model(m)
            ratios = []
            for n in (100, 300, 1000, 10_000):
                ratios.append(ccdf_exact(m, n).log_value / asym.log_body(p, n))
            assert all(0.84 <= r <= 1.0 for r in ratios)
            assert abs(ratios[-1] - 1.0) <= 0.03

    def test_requires_n_at_least_two(self):
        with pytest.raises(InvalidParameter):
            asym.log_body(params(2.0, 0.5), 1)


class TestLogUpperBound:
    def test_zero_eps_equals_body(self):
        p = ApproxParams.from_model(model_1a(2.0))
        assert asym.log_upper_bound(p, 50, 0.0) == asym.log_body(p, 50)

    def test_bound_holds_past_onset(self):
        m = model_1a(2.0)
        p = ApproxParams.from_model(m)
        for n in (20, 50, 200, 1000, 10_000):
            assert ccdf_exact(m, n).log_value <= asym.log_upper_bound(p, n, 0.2)

    def test_geometric_term_dominates_eventually(self):
        p = ApproxParams.from_model(model_1a(1.0))
        n = 10_000
        geo = n * math.log1p(-p.gbar_b)
        assert abs(asym.log_body(p, n) / geo - 1.0) <= 0.01

    def test_eps_validation(self):
        with pytest.raises(InvalidParameter):
            asym.log_upper_bound(params(2.0, 0.5), 10, 1.0)


class TestTransitionPoint:
    def test_heuristic_closed_form(self):
        for bound in (1.0, 2.0, 4.0):
            report = asym.transition_point(ApproxParams.from_model(model_1a(bound)))
            assert report.n_heuristic == pytest.approx(2.0 * math.e ** bound,
                                                       rel=1e-15)

    def test_fixed_point_bound_one(self):
        # root of n e^-1 = 2 log n on (10, 20), precomputed by bisection
        report = asym.transition_point(ApproxParams.from_model(model_1a(1.0)))
        assert report.n_fixed_point == pytest.approx(14.561003906540538, rel=1e-9)
        assert report.bracket[0] <= report.n_fixed_point <= report.bracket[1]

    def test_residual_contract(self):
        for bound in (1.0, 2.0, 4.0):
            p = ApproxParams.from_model(model_1a(bound))
            r = asym.transition_point(p)
            residual = abs(r.n_fixed_point * p.gbar_b
                           - p.alpha * math.log(r.n_fixed_point))
            assert residual <= 1e-9 * p.alpha * math.log(r.n_fixed_point)
            assert r.n_fixed_point > math.e

    def test_no_root_when_tail_too_heavy(self):
        with pytest.raises(NoRoot):
            asym.transition_point(params(1.0, 0.5))


class TestPowerLawRegionCheck:
    def test_point_cases(self):
        assert asym.power_law_region_check(params(2.0, math.exp(-4.0)), 10, 0.5)
        assert not asym.power_law_region_check(params(2.0, math.exp(-1.0)), 100, 0.1)

    def test_log_ratio_inside_region(self):
        # inside the region, -log P / (alpha log n) stays within eps + 0.1
        cases = [(model_1a(4.0), 0.02), (model_1b(4.0), 0.5), (model_1b(2.0), 0.1)]
        checked = 0
        for m, eps in cases:
            p = ApproxParams.from_model(m)
            for n in (50, 80, 120, 200):
                if not asym.power_law_region_check(p, n, eps):
                    continue
                checked += 1
                ratio = -ccdf_exact(m, n).log_value / (p.alpha * math.log(n))
                assert abs(ratio - 1.0) <= eps + 0.1
        assert checked >= 4


class TestRegimeLimits:
    def test_power_law_limit_regime(self):
        # hold n Gbar(b) = 0.01 while n grows: scaled value approaches
        # Gamma(alpha + 1) / alpha within 2%
        target = gamma(3.0) / 2.0
        for n in (100, 1000, 10_000, 100_000):
            p = params(2.0, 0.01 / n)
            scaled = asym.uniform_approx(p, n) * n ** 2 / 2.0
            assert abs(scaled - target) <= 0.02 * target

    def test_ell_argument_switch_is_continuous(self):
        # crossing n = 1/Gbar(b) changes the ell argument from n to 1/Gbar;
        # the induced jump is bounded by ell's own variation across the step
        m = model_4(2.0)
        p = ApproxParams.from_model(m)
        switch = 1.0 / p.gbar_b
        n_lo, n_hi = math.floor(switch), math.ceil(switch)
        ell = p.ell
        with_switch = asym.log_uniform_approx(p, n_hi)
        # same formula with the argument pinned to n_hi (no switch)
        no_switch = (-math.log(p.F_b) + math.log(p.alpha)
                     + asym.gammafn.log_upper_incomplete_gamma(
                         n_hi * asym.neg_log_one_minus(p.gbar_b), p.alpha)
                     - p.alpha * math.log(n_hi)
                     - float(ell.log_value(math.log(n_hi))))
        jump = abs(math.exp(with_switch - no_switch) - 1.0)
        ell_step = abs(math.expm1(float(ell.log_value(math.log(n_hi))
                                        - ell.log_value(math.log(n_lo)))))
        assert jump <= ell_step + 0.01
