"""Law, truncation, slow-variation, and coupling checks.

Frozen expected values were precomputed with independent tools (closed
forms, quadrature of densities, high-precision special functions) before
the implementation existed.
"""

import dataclasses
import logging
import math

import numpy as np
import pytest
from scipy import special

from conftest import ks_statistic, ks_statistic_uniform, model_1a, model_3, model_4
from retxdist import dists, gammafn
from retxdist.dists import (
    BoundedDoc,
    CoupledModel,
    CouplingMode,
    DerivedLaw,
    Exponential,
    Gamma,
    SlowVaryGammaDoc,
    SlowVaryLogPower,
    SlowVaryOne,
    Weibull,
    derive_doc_law,
    sampling_quantile,
    validate_coupling,
)
from retxdist.errors import (
    DegenerateTruncation,
    InvalidParameter,
    NonConvergence,
    NotMonotone,
)
from retxdist.mc import RandomStream

# e^-(8/16)^0.5, Weibull index 1/2 scale 16 survival at 8.
WEIBULL_HALF_16_AT_8 = 0.4930686913952398
# x with Q(2, 2x) = 0.5, cross-checked by quadrature of the gamma density.
GAMMA_22_MEDIAN = 0.8391734950083306
# (e^-1 - e^-2) / (1 - e^-2): truncated exceedance P[L_b > 0.5], Exp(2), b=1.
TRUNC_HALF_PROB = 0.2689414213699951


class TestParametricLaws:
    def test_parameter_validation(self):
        for bad in (lambda: Exponential(0.0), lambda: Exponential(-1.0),
                    lambda: Weibull(0.0, 1.0), lambda: Weibull(1.0, -2.0),
                    lambda: Gamma(-1.0, 2.0), lambda: Gamma(2.0, 0.0)):
            with pytest.raises(InvalidParameter):
                bad()

    def test_ccdf_basics(self):
        for law in (Exponential(2.0), Weibull(0.5, 16.0), Gamma(2.0, 2.0)):
            assert law.ccdf(0.0) == pytest.approx(1.0, abs=1e-15)
            xs = np.linspace(0.0, 30.0, 50)
            vals = np.asarray(law.ccdf(xs))
            assert np.all(np.diff(vals) <= 0)
            assert np.all(vals > 0)

    def test_exponential_point_values(self):
        assert Exponential(2.0).ccdf(1.0) == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert Exponential(2.0).quantile_ccdf(math.exp(-2.0)) == pytest.approx(
            1.0, rel=1e-14)

    def test_weibull_point_value(self):
        assert Weibull(0.5, 16.0).ccdf(8.0) == pytest.approx(
            WEIBULL_HALF_16_AT_8, rel=1e-14)

    def test_gamma_median(self):
        x = Gamma(2.0, 2.0).quantile_ccdf(0.5)
        assert Gamma(2.0, 2.0).ccdf(x) == pytest.approx(0.5, abs=1e-10)
        assert x == pytest.approx(GAMMA_22_MEDIAN, rel=1e-9)

    def test_quantile_of_one_is_zero(self):
        for law in (Exponential(2.0), Weibull(2.0, 2.0), Gamma(2.0, 2.0)):
            assert law.quantile_ccdf(1.0) == 0.0

    @pytest.mark.parametrize("law", [Exponential(2.0), Weibull(0.5, 16.0),
                                     Weibull(2.0, 2.0), Gamma(2.0, 2.0),
                                     Gamma(0.7, 3.2)])
    def test_quantile_roundtrip(self, law):
        for u in (1e-12, 1e-9, 1e-4, 0.01, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-12):
            x = law.quantile_ccdf(u)
            assert abs(law.ccdf(x) - u) <= 1e-9

    def test_quantile_domain(self):
        with pytest.raises(InvalidParameter):
            Exponential(1.0).quantile_ccdf(0.0)
        with pytest.raises(InvalidParameter):
            Exponential(1.0).quantile_ccdf(1.5)

    def test_gamma_scalar_and_vector_routes_agree(self):
        # scipy's incomplete Gamma, which the law uses, against the in-house one
        law = Gamma(2.0, 2.0)
        xs = np.geomspace(0.01, 20.0, 40)
        for x, v in zip(xs, law.ccdf(xs)):
            want = gammafn.regularized_upper_gamma(law.rate * float(x), law.shape)
            assert float(v) == pytest.approx(want, rel=1e-10, abs=1e-300)
        qs = np.geomspace(1e-6, 1.0, 30)
        for q, x in zip(qs, law.quantile_ccdf(qs)):
            assert gammafn.regularized_upper_gamma(law.rate * float(x), law.shape) == \
                pytest.approx(float(q), abs=1e-10)


class TestSampling:
    def test_exponential_mean(self):
        rng = RandomStream(11)
        xs = Exponential(2.0).quantile_ccdf(rng.uniforms(1_000_000))
        assert abs(float(np.mean(xs)) - 0.5) <= 0.002   # 4 sigma / sqrt(N)

    def test_weibull_ks(self):
        law = Weibull(2.0, 2.0)
        rng = RandomStream(12)
        xs = law.quantile_ccdf(rng.uniforms(200_000))
        d = ks_statistic(xs, lambda v: np.asarray(law.cdf(v)))
        assert d < 1.95 / math.sqrt(len(xs))

    @pytest.mark.parametrize("law", [Exponential(2.0), Weibull(0.5, 16.0),
                                     Gamma(2.0, 2.0)])
    def test_cdf_transform_uniformity(self, law):
        rng = RandomStream(13)
        xs = law.quantile_ccdf(rng.uniforms(200_000))
        d = ks_statistic_uniform(np.asarray(law.cdf(xs)))
        assert d < 1.95 / math.sqrt(len(xs))


class TestBoundedDoc:
    def test_truncated_ccdf_endpoints(self):
        doc = BoundedDoc(Exponential(2.0), 1.0)
        assert doc.ccdf(0.0) == pytest.approx(1.0, abs=1e-15)
        assert doc.ccdf(1.0) == 0.0
        assert doc.ccdf(2.0) == 0.0

    def test_truncation_consistency(self):
        # P[L_b <= x] * F(b) = F(x), absolute 1e-12 across the support
        for base in (Exponential(2.0), Weibull(2.0, 2.0), Gamma(2.0, 2.0)):
            doc = BoundedDoc(base, 1.5)
            for x in np.linspace(0.0, 1.5, 40):
                lhs = float(doc.cdf(float(x))) * doc.cdf_at_bound
                assert abs(lhs - float(base.cdf(float(x)))) <= 1e-12

    def test_support_bound(self):
        doc = BoundedDoc(Exponential(2.0), 1.0)
        rng = RandomStream(21)
        xs = doc.quantile_from_uniform(rng.uniforms(10_000))
        assert np.all(xs >= 0.0) and np.all(xs <= 1.0)

    def test_truncated_tail_probability(self):
        doc = BoundedDoc(Exponential(2.0), 1.0)
        rng = RandomStream(22)
        xs = doc.quantile_from_uniform(rng.uniforms(1_000_000))
        emp = float(np.mean(xs > 0.5))
        sigma = math.sqrt(TRUNC_HALF_PROB * (1 - TRUNC_HALF_PROB) / len(xs))
        assert abs(emp - TRUNC_HALF_PROB) <= 3 * sigma

    def test_unbounded_sentinel(self):
        base = Exponential(1.0)
        doc = BoundedDoc(base, math.inf)
        assert doc.cdf_at_bound == 1.0
        xs = np.linspace(0.0, 20.0, 50)
        assert np.max(np.abs(np.asarray(doc.ccdf(xs))
                             - np.asarray(base.ccdf(xs)))) == 0.0
        rng = RandomStream(33)
        samples = doc.quantile_from_uniform(rng.uniforms(100_000))
        d = ks_statistic(samples, lambda v: np.asarray(base.cdf(v)))
        assert d < 1.95 / math.sqrt(len(samples))

    @pytest.mark.parametrize("base,bound", [
        (Exponential(2.0), 1.0), (Weibull(0.5, 16.0), 8.0), (Gamma(2.0, 2.0), 3.0),
        (Gamma(0.7, 3.2), 0.3),
        (derive_doc_law(Weibull(0.5, 1.0), 1.5, SlowVaryLogPower(1.0, 1.0), 16.0).doc.base,
         16.0)])
    def test_ccdf_at_bound_is_the_base_survival(self, base, bound):
        doc = BoundedDoc(base, bound)
        assert type(doc.ccdf_at_bound) is float
        assert doc.ccdf_at_bound.hex() == float(base.ccdf(bound)).hex()
        assert doc.cdf_at_bound.hex() == float(base.cdf(bound)).hex()

    @pytest.mark.parametrize("base", [
        Exponential(1.0), Weibull(0.5, 16.0), Gamma(0.7, 3.2),
        derive_doc_law(Exponential(2.0), 1.0, SlowVaryGammaDoc(2.0, 2.0, 2.0),
                       math.inf).doc.base])
    def test_unbounded_is_the_base_law_bit_for_bit(self, base):
        doc = BoundedDoc(base, math.inf)
        assert doc.ccdf_at_bound == 0.0 and doc.cdf_at_bound == 1.0
        xs = np.concatenate([[0.0], np.geomspace(1e-6, 50.0, 200)])
        np.testing.assert_array_equal(doc.ccdf(xs), base.ccdf(xs))
        np.testing.assert_array_equal(doc.cdf(xs), base.cdf(xs))

    @pytest.mark.parametrize("rate", [1e-16, 1e-8, 1e-4, 0.5, 2.0])
    def test_ccdf_where_little_mass_lies_below_the_bound(self, rate):
        # (e^(-rate x) - e^(-rate b)) / (1 - e^(-rate b)) without cancellation;
        # Fbar(x) - Fbar(b) would lose every digit at rate 1e-16
        doc = BoundedDoc(Exponential(rate), 1.0)
        xs = np.linspace(0.0, 1.0, 41)
        want = -np.expm1(-rate * (1.0 - xs)) * np.exp(-rate * xs) / -math.expm1(-rate)
        np.testing.assert_allclose(doc.ccdf(xs), want, rtol=1e-13, atol=1e-16)

    def test_degenerate_truncation(self):
        with pytest.raises(DegenerateTruncation):
            BoundedDoc(Exponential(1.0), 1e-301)
        with pytest.raises(InvalidParameter):
            BoundedDoc(Exponential(1.0), -1.0)


class TestSlowVary:
    @pytest.mark.parametrize("ell", [
        SlowVaryOne(),
        SlowVaryLogPower(coeff=1.0, exponent=-1.0),
        SlowVaryLogPower(coeff=2.0, exponent=0.5),
        SlowVaryGammaDoc(2.0, 2.0, 2.0),
    ])
    def test_slow_variation_profile(self, ell):
        xs = np.geomspace(1e2, 1e12, 11)
        for lam in (2.0, 10.0):
            devs = [abs(float(ell.value_log(math.log(lam * x)))
                        / float(ell.value_log(math.log(x))) - 1.0)
                    for x in xs]
            assert all(b <= a + 1e-15 for a, b in zip(devs, devs[1:]))
            assert devs[-1] < 0.05 if lam == 2.0 else devs[-1] < 0.08

    def test_positive_on_domain(self):
        for ell in (SlowVaryOne(), SlowVaryLogPower(1.0, -1.0),
                    SlowVaryGammaDoc(2.0, 2.0, 2.0)):
            ys = np.geomspace(1.0, 1e15, 30)
            assert np.all(np.asarray(ell.value_log(np.log(ys))) > 0)

    def test_gamma_doc_closed_form_shape_two(self):
        # f(t) = 1 + doc_rate * t when the shape is 2, so
        # ell(y) = 1 / (1 + doc_rate * log(y) / channel_rate)
        ell = SlowVaryGammaDoc(2.0, 2.0, 2.0)
        for y in (1.0, 10.0, 1e4):
            assert float(ell.value_log(math.log(y))) == pytest.approx(
                1.0 / (1.0 + math.log(y)), rel=1e-12)

    def test_gamma_doc_closed_form_matches_polynomial(self):
        # non-integer shape goes through e^z Q(shape, z); compare against the
        # integer-shape polynomial at a shape where both routes are valid
        poly = SlowVaryGammaDoc(2.0, 3.0, 2.0)
        closed = SlowVaryGammaDoc(2.0, 3.0 + 1e-13, 2.0)
        for y in (2.0, 50.0, 1e6):
            assert float(poly.value_log(math.log(y))) == pytest.approx(
                float(closed.value_log(math.log(y))), rel=1e-9)

    @pytest.mark.parametrize("shape", [0.5, 1.5, 2.5])
    def test_gamma_doc_non_integer_shape(self, shape):
        # ell(1) = 1/f(0) = 1 exactly, and f(t) = e^(lam t) Q(shape, lam t)
        mpmath = pytest.importorskip("mpmath")
        doc_rate, channel_rate = 2.0, 1.5
        ell = SlowVaryGammaDoc(doc_rate, shape, channel_rate)
        assert float(ell.value_log(0.0)) == pytest.approx(1.0, rel=1e-13, abs=0.0)
        for t in (1e-3, 0.01, 0.3, 2.0, 40.0):
            z = mpmath.mpf(doc_rate * t)
            want = mpmath.exp(z) * mpmath.gammainc(shape, z, mpmath.inf, regularized=True)
            got = 1.0 / float(ell.value_log(channel_rate * t))
            assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_gamma_doc_beyond_closed_form_range(self):
        ell = SlowVaryGammaDoc(2.0, 0.5, 1.0)
        with pytest.raises(InvalidParameter):
            ell.value_log(400.0)          # doc_rate * t = 800

    def test_log_power_clamp(self):
        ell = SlowVaryLogPower(1.0, 2.0)
        assert float(ell.value_log(0.0)) == float(ell.value_log(1.0))


class TestCoupling:
    def test_exponential_pair_exact(self):
        report = validate_coupling(model_1a(2.0))
        assert report.max_residual == pytest.approx(0.0, abs=1e-13)

    def test_weibull_pair_exact(self):
        report = validate_coupling(model_3(2.0, 2.0))
        assert report.max_residual == pytest.approx(0.0, abs=1e-13)

    def test_gamma_doc_exact_ell(self):
        report = validate_coupling(model_4(2.0))
        assert report.max_residual < 0.05
        assert report.max_residual < 1e-12   # relation is exact for shape 2

    def test_grid_starts_at_point_nine(self):
        report = validate_coupling(model_1a(4.0))
        x0 = report.grid[0][0]
        m = model_1a(4.0)
        assert float(m.channel.ccdf(x0)) <= 0.9 + 1e-12

    def test_mismatched_alpha_has_large_residual(self):
        bad = CoupledModel.parametric(Exponential(1.0), Exponential(2.0),
                                      3.0, SlowVaryOne(), 2.0)
        assert validate_coupling(bad).max_residual > 0.05

    def test_derived_mode_rejected(self):
        m = derive_doc_law(Exponential(1.0), 2.0, SlowVaryOne(), 4.0)
        with pytest.raises(InvalidParameter):
            validate_coupling(m)


class TestCoupledModel:
    @pytest.mark.parametrize("channel,bound", [
        (Exponential(1.0), 1.0), (Exponential(2.0), 3.0), (Weibull(0.5, 2.0), 8.0),
        (Weibull(2.0, 2.0), 0.7)])
    def test_gbar_bound_is_the_channel_survival(self, channel, bound):
        m = CoupledModel.parametric(channel, Exponential(1.0), 1.0, SlowVaryOne(), bound)
        assert type(m.gbar_bound) is float
        assert m.gbar_bound.hex() == float(channel.ccdf(bound)).hex()

    def test_gbar_bound_of_unbounded_model(self):
        m = CoupledModel.parametric(Exponential(1.0), Exponential(1.0), 1.0,
                                    SlowVaryOne(), math.inf)
        assert m.gbar_bound == 0.0


class TestCouplingMode:
    def test_derived_models_are_derived(self):
        for channel, alpha, ell, bound in (
                (Exponential(1.0), 2.0, SlowVaryOne(), 4.0),
                (Weibull(0.5, 1.0), 1.5, SlowVaryLogPower(1.0, 1.0), 16.0),
                (Exponential(2.0), 1.0, SlowVaryGammaDoc(2.0, 2.0, 2.0), math.inf)):
            assert derive_doc_law(channel, alpha, ell, bound).mode is CouplingMode.DERIVED

    def test_parametric_models_are_parametric(self):
        for m in (model_1a(2.0), model_3(0.5, 16.0), model_4(3.0)):
            assert m.mode is CouplingMode.PARAMETRIC

    def test_mode_follows_the_document_law(self):
        # mode is not a field: no model can carry one its document contradicts
        assert "mode" not in {f.name for f in dataclasses.fields(CoupledModel)}
        law = derive_doc_law(Exponential(1.0), 2.0, SlowVaryOne(), 4.0).doc.base
        m = CoupledModel(Exponential(1.0), BoundedDoc(law, 4.0), 2.0, SlowVaryOne())
        assert m.mode is CouplingMode.DERIVED
        with pytest.raises(InvalidParameter):
            validate_coupling(m)


class TestDerivedLaw:
    def test_identity_coupling(self):
        m = derive_doc_law(Exponential(1.0), 1.0, SlowVaryOne(), math.inf)
        xs = np.linspace(0.0, 20.0, 64)
        got = np.asarray(m.doc.base.ccdf(xs))
        want = np.exp(-xs)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_power_coupling_matches_exponential(self):
        m = derive_doc_law(Exponential(1.0), 2.0, SlowVaryOne(), 4.0)
        assert m.mode is CouplingMode.DERIVED
        xs = np.linspace(0.0, 4.0, 64)
        assert np.max(np.abs(np.asarray(m.doc.base.ccdf(xs))
                             - np.exp(-2.0 * xs))) <= 1e-12

    def test_gamma_tail_reconstruction(self):
        m = derive_doc_law(Exponential(2.0), 1.0,
                           SlowVaryGammaDoc(2.0, 2.0, 2.0), 3.0)
        ref = Gamma(2.0, 2.0)
        for x in np.linspace(1.0, 3.0, 15):
            got = float(m.doc.base.ccdf(float(x)))
            want = float(ref.ccdf(float(x)))
            assert abs(got - want) / want <= 0.05

    def test_quantile_roundtrip(self):
        m = derive_doc_law(Exponential(2.0), 1.0,
                           SlowVaryGammaDoc(2.0, 2.0, 2.0), 3.0)
        law = m.doc.base
        for q in (1e-6, 0.01, 0.4, 0.9, 1.0 - 1e-9):
            x = law.quantile_ccdf(q)
            assert abs(law.ccdf(x) - q) <= 1e-9

    def test_bounded_sampling(self):
        m = derive_doc_law(Exponential(2.0), 1.0,
                           SlowVaryGammaDoc(2.0, 2.0, 2.0), 3.0)
        rng = RandomStream(44)
        xs = m.doc.quantile_from_uniform(rng.uniforms(20_000))
        assert np.all((xs >= 0) & (xs <= 3.0))
        # empirical truncated exceedance vs the law itself
        emp = float(np.mean(xs > 1.0))
        want = float(m.doc.ccdf(1.0))
        assert abs(emp - want) <= 4 * math.sqrt(want * (1 - want) / len(xs))

    def test_anchor_recorded(self):
        m = derive_doc_law(Exponential(1.0), 1.0, SlowVaryOne(), 4.0)
        assert m.doc.base.x_anchor == 0.0

    def test_not_monotone_rejected(self):
        # a strong negative log power makes the raw survival rise near 0
        with pytest.raises(NotMonotone):
            derive_doc_law(Exponential(1.0), 0.5,
                           SlowVaryLogPower(1.0, -5.0), 20.0)


# (channel, bound) x (alpha, ell): the derived laws the quantile tests cover.
DERIVED_CHANNELS = [(Exponential(2.0), 3.0), (Weibull(0.5, 1.0), 16.0),
                    (Gamma(2.0, 2.0), 3.0)]
DERIVED_ELLS = [(2.0, SlowVaryOne()), (1.5, SlowVaryLogPower(1.0, 1.0)),
                (1.0, SlowVaryGammaDoc(2.0, 2.0, 2.0))]


@pytest.fixture(params=[(c, e) for c in DERIVED_CHANNELS for e in DERIVED_ELLS],
                ids=lambda p: f"{p[0][0].family}-{p[1][1].kind}")
def derived_model(request):
    (channel, bound), (alpha, ell) = request.param
    return derive_doc_law(channel, alpha, ell, bound)


class TestDerivedQuantile:
    """The log-survival inversion of derived laws, s = log Gbar(x)."""

    def test_roundtrip_from_bound_to_one(self, derived_model):
        law = derived_model.doc.base
        fbar_b = float(law.ccdf(derived_model.bound))
        qs = np.concatenate([np.geomspace(fbar_b, 0.5, 300),
                             1.0 - np.geomspace(0.5, 1e-9, 300)])
        xs = law.quantile_ccdf(qs)
        assert np.all((xs >= 0.0) & (xs <= derived_model.bound * (1 + 1e-12)))
        assert np.max(np.abs(np.asarray(law.ccdf(xs)) - qs)) <= 1e-9
        for q in (fbar_b, 0.3, 1.0 - 1e-9):
            assert abs(law.ccdf(law.quantile_ccdf(q)) - q) <= 1e-9

    def test_truncated_draws_are_uniform_under_cdf(self, derived_model):
        xs = derived_model.doc.quantile_from_uniform(RandomStream(45).uniforms(200_000))
        d = ks_statistic_uniform(np.asarray(derived_model.doc.cdf(xs)))
        assert d < 1.95 / math.sqrt(len(xs))

    def test_trivial_ell_exponential_is_exponential(self):
        rate, alpha = 2.0, 1.7
        law = derive_doc_law(Exponential(rate), alpha, SlowVaryOne(), math.inf).doc.base
        qs = np.concatenate([np.geomspace(1e-300, 0.5, 200),
                             1.0 - np.geomspace(0.5, 1e-15, 200)])
        want = Exponential(alpha * rate).quantile_ccdf(qs)
        assert np.max(np.abs(law.quantile_ccdf(qs) / want - 1.0)) <= 1e-14

    @pytest.mark.parametrize("ell", [SlowVaryLogPower(1.0, 1.0),
                                     SlowVaryLogPower(0.5, -0.5),
                                     SlowVaryGammaDoc(2.0, 2.0, 2.0),
                                     SlowVaryGammaDoc(2.0, 2.5, 1.5)])
    def test_log_slope_is_derivative(self, ell):
        # Newton's h'(s) = alpha + log_slope(-s) must match h itself
        log_y = np.linspace(1.5, 30.0, 50)
        h = 1e-6
        fd = (np.log(ell.value_log(log_y + h)) - np.log(ell.value_log(log_y - h))) / (2 * h)
        assert np.max(np.abs(ell.log_slope(log_y) - fd)) <= 1e-7

    def test_quantile_zero_where_law_starts_below_q(self):
        # coeff 2: the raw survival is 1/2 at x = 0, so every q above it maps to 0
        law = derive_doc_law(Exponential(1.0), 1.5, SlowVaryLogPower(2.0, 1.0), 8.0).doc.base
        assert law.ccdf(0.0) == pytest.approx(0.5)
        assert np.all(law.quantile_ccdf(np.array([0.6, 0.9, 1.0])) == 0.0)
        assert law.quantile_ccdf(0.25) > 0.0

    def test_quantile_of_one_skips_newton(self):
        # the shape-2 polynomial gives ell(1) = 1 - 2.2e-16, so h(0) > 0 = log q
        law = derive_doc_law(Exponential(2.0), 1.0,
                             SlowVaryGammaDoc(2.0, 2.0, 2.0), 2.0).doc.base
        assert -math.log(law.ell.value_log(0.0)) > 0.0
        with np.errstate(all="raise"):
            assert law.quantile_ccdf(1.0) == 0.0
            assert np.all(law.quantile_ccdf(np.array([1.0, 0.5]))[:1] == 0.0)

    def test_iteration_cap_raises(self, monkeypatch):
        law = derive_doc_law(Exponential(2.0), 1.0,
                             SlowVaryGammaDoc(2.0, 2.0, 2.0), 3.0).doc.base
        monkeypatch.setattr(DerivedLaw, "QUANTILE_MAX_ITER", 2)
        with pytest.raises(NonConvergence):
            law.quantile_ccdf(np.array([0.5, 1e-3]))

    def test_zero_step_ends_the_iteration(self, monkeypatch):
        # above the clamp (-s < log x_min = 1) ell is 1 and h(s) = alpha s;
        # for these log q Newton starts exactly at the root, and its zero
        # step ends the iteration on the second pass
        law = derive_doc_law(Weibull(0.5, 1.0), 1.5, SlowVaryLogPower(1.0, 1.0),
                             16.0).doc.base
        log_q = -1.5 * np.arange(1, 8) / 8.0
        monkeypatch.setattr(DerivedLaw, "QUANTILE_MAX_ITER", 2)
        assert np.array_equal(law._solve_log_survival(log_q), log_q / 1.5)

    @pytest.mark.parametrize("ell, channel, alpha, bound", [
        (SlowVaryGammaDoc(2.0, 0.5, 2.0), Exponential(2.0), 1.0, 3.0),
        (SlowVaryLogPower(1.0, 1.0), Weibull(0.5, 1.0), 1.5, 16.0)])
    def test_residual_near_q_one(self, ell, channel, alpha, bound):
        # shape 0.5: h' grows like |s|^(-1/2) near 0, so a step within
        # rounding noise of s still leaves h far from log q
        law = derive_doc_law(channel, alpha, ell, bound).doc.base
        log_q = np.log(1.0 - 10.0 ** -np.arange(1.0, 16.0))
        s = law._solve_log_survival(log_q)
        h = dists._derived_log_raw(law.alpha, law.ell, s)
        assert np.all(np.abs(h - log_q) <= 64 * np.finfo(float).eps * (1.0 - log_q))

    def test_flat_noisy_h_converges(self):
        # shape 2.5: h'(0) = 0, so first steps overshoot far below the root,
        # and h carries about 4e-15 of rounding noise, so Newton can land on
        # either end of a bracket a few ulps wide
        law = derive_doc_law(Exponential(2.0), 1.0,
                             SlowVaryGammaDoc(2.0, 2.5, 2.0), 3.0).doc.base
        q = RandomStream(46).uniforms(200_000)
        s = law.channel.log_ccdf(law.quantile_ccdf(q))
        h = dists._derived_log_raw(law.alpha, law.ell, s)
        log_q = np.log(q)
        assert np.all(np.abs(h - log_q) <= 64 * np.finfo(float).eps * (1.0 - log_q))



# (rate, shape, bound): one part only (F(b) <= 1/2), both parts, and a
# bound with Fbar(b) < 1e-12 for each shape.
GAMMA_TABLE_CASES = [
    (1.0, 0.5, 0.1), (1.0, 0.5, 3.0), (1.0, 0.5, 26.0),
    (2.0, 2.0, 0.5), (2.0, 2.0, 3.0), (1.0, 2.0, 32.0),
    (1.0, 5.0, 3.0), (1.0, 5.0, 8.0), (1.0, 5.0, 40.0),
]


def _gamma_reference(law, doc, u):
    """x for uniforms u through scipy's inversion of the cancellation-free tail."""
    p = u * doc.cdf_at_bound
    q = (1.0 - u) * doc.cdf_at_bound + float(law.ccdf(doc.bound))
    return np.where(p <= 0.5, special.gammaincinv(law.shape, p),
                    special.gammainccinv(law.shape, q)) / law.rate


def _panel_midpoint_uniforms(law, doc, table):
    """Uniforms whose table coordinate t is the midpoint of every panel."""
    fbar_b = float(law.ccdf(doc.bound))
    t_lo = min(doc.cdf_at_bound, 0.5) ** (1.0 / law.shape)
    n_lo = table.panels[0]
    t = (np.arange(n_lo) + 0.5) * (t_lo / n_lo)
    out = [np.power(t, law.shape) / doc.cdf_at_bound]
    if len(table.panels) > 1:
        n_hi = table.panels[1]
        t0, t1 = math.log(2.0), -math.log(fbar_b)
        t = t0 + (np.arange(n_hi) + 0.5) * ((t1 - t0) / n_hi)
        out.append(1.0 - (np.exp(-t) - fbar_b) / doc.cdf_at_bound)
    return np.concatenate(out)


class TestGammaQuantileTable:
    @pytest.mark.parametrize("rate,shape,bound", GAMMA_TABLE_CASES)
    def test_midpoints_certified(self, rate, shape, bound):
        law = Gamma(rate, shape)
        doc = BoundedDoc(law, bound)
        table = sampling_quantile(doc)
        assert isinstance(table, dists._GammaQuantileTable)
        assert len(table.panels) == (1 if doc.cdf_at_bound <= 0.5 else 2)
        assert table.max_error <= 1e-12
        u = _panel_midpoint_uniforms(law, doc, table)
        ref = _gamma_reference(law, doc, u)
        assert np.max(np.abs(table(u) - ref) / ref) <= 1e-12
        # between midpoints the cubic's error is smaller, up to how much its
        # fourth derivative changes across a panel
        u = RandomStream(61).uniforms(20_000)
        ref = _gamma_reference(law, doc, u)
        assert np.max(np.abs(table(u) - ref) / ref) <= 2e-12

    def test_deep_bound_case_is_deep(self):
        for law, bound in ((Gamma(1.0, 0.5), 26.0), (Gamma(1.0, 2.0), 32.0),
                           (Gamma(1.0, 5.0), 40.0)):
            assert 0.0 < law.ccdf(bound) < 1e-12

    @pytest.mark.parametrize("rate,shape,bound", [(2.0, 2.0, 2.0), (2.0, 2.0, 4.0),
                                                  (1.0, 5.0, 8.0)])
    def test_draws_follow_the_law(self, rate, shape, bound):
        doc = BoundedDoc(Gamma(rate, shape), bound)
        u = RandomStream(62).uniforms(200_000)
        xs = sampling_quantile(doc)(u)
        assert np.all((xs >= 0.0) & (xs <= bound * (1.0 + 1e-12)))
        d = ks_statistic_uniform(np.asarray(doc.cdf(xs)))
        assert d < 1.63 / math.sqrt(len(xs))
        exact = doc.quantile_from_uniform(u)
        # the exact path's q = 1 - u F(b) cancels near x = 0: ~1e-10 there
        assert np.max(np.abs(xs - exact) / exact) <= 1e-9

    def test_infinite_bound_falls_back(self, caplog):
        doc = BoundedDoc(Gamma(2.0, 2.0), math.inf)
        with caplog.at_level(logging.DEBUG, logger="retxdist"):
            assert sampling_quantile(doc) == doc.quantile_from_uniform
        assert "bound inf" in caplog.text and "exact quantile" in caplog.text

    def test_uncertified_table_falls_back(self, monkeypatch, caplog):
        monkeypatch.setattr(dists, "_GAMMA_TABLE_MAX_PANELS", dists._GAMMA_TABLE_PANELS)
        doc = BoundedDoc(Gamma(2.0, 2.0), 3.0)
        with caplog.at_level(logging.DEBUG, logger="retxdist"):
            assert sampling_quantile(doc) == doc.quantile_from_uniform
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        assert "bound 3" in record.message and "64+64 panels" in record.message
        assert "midpoint error" in record.message

    def test_silent_by_default(self, capsys):
        doc = BoundedDoc(Gamma(2.0, 2.0), math.inf)
        sampling_quantile(doc)
        assert capsys.readouterr() == ("", "")

    def test_other_laws_take_the_exact_path(self):
        for base in (Exponential(2.0), Weibull(0.5, 16.0)):
            doc = BoundedDoc(base, 3.0)
            assert sampling_quantile(doc) == doc.quantile_from_uniform

DERIVED_LAWS = [derive_doc_law(channel, alpha, ell, bound).doc.base
                for channel, bound in DERIVED_CHANNELS for alpha, ell in DERIVED_ELLS]


XS = np.geomspace(1e-3, 30.0, 200)
QS = np.geomspace(1e-300, 1.0, 200)
LOG_QS = -np.geomspace(1e-12, 700.0, 200)
US = np.geomspace(1e-12, 1.0, 200)
LOG_YS = np.geomspace(1e-3, 300.0, 200)


def _methods(obj):
    """(name, method, points) for every evaluation method of a law or ell."""
    if isinstance(obj, BoundedDoc):
        xs = XS * (obj.bound / 30.0) if math.isfinite(obj.bound) else XS
        return [("ccdf", obj.ccdf, xs), ("cdf", obj.cdf, xs),
                ("quantile_from_uniform", obj.quantile_from_uniform, US)]
    if hasattr(obj, "value_log"):
        out = [("value_log", obj.value_log, LOG_YS)]
        if hasattr(obj, "log_slope"):
            out.append(("log_slope", obj.log_slope, LOG_YS))
        return out
    out = [("ccdf", obj.ccdf, XS), ("log_ccdf", obj.log_ccdf, XS),
           ("cdf", obj.cdf, XS), ("quantile_ccdf", obj.quantile_ccdf, QS)]
    if hasattr(obj, "quantile_log_ccdf"):
        out.append(("quantile_log_ccdf", obj.quantile_log_ccdf, LOG_QS))
    return out


ONE_PATH_OBJECTS = (
    [Exponential(2.0), Weibull(0.5, 16.0), Weibull(2.0, 2.0), Gamma(2.0, 2.0),
     Gamma(0.7, 3.2)]
    + DERIVED_LAWS
    + [BoundedDoc(Exponential(2.0), 1.0), BoundedDoc(Gamma(2.0, 2.0), 3.0),
       BoundedDoc(Weibull(0.5, 16.0), math.inf)]
    + [BoundedDoc(law, bound) for law, bound in zip(DERIVED_LAWS[::4], (3.0, 16.0, 3.0))]
    + [SlowVaryOne(), SlowVaryLogPower(1.0, 1.0), SlowVaryLogPower(0.5, -0.5, 5.0),
       SlowVaryGammaDoc(2.0, 2.0, 2.0), SlowVaryGammaDoc(2.0, 2.5, 1.5),
       SlowVaryGammaDoc(2.0, 0.5, 1.5)])


class TestOnePath:
    """Every law method has one body: a number and a length-1 array agree bit for bit."""

    @pytest.mark.parametrize("obj", ONE_PATH_OBJECTS, ids=lambda o: repr(o)[:60])
    def test_scalar_matches_length_one_array(self, obj):
        for name, method, points in _methods(obj):
            scalar = [method(float(v)) for v in points]
            assert all(type(out) is np.float64 for out in scalar), name
            array = np.concatenate([method(np.array([v])) for v in points])
            np.testing.assert_array_equal(np.array(scalar), array, err_msg=name)

