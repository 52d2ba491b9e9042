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
from retxdist import dists, experiment, gammafn
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
    sampling_quantiles,
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

    @pytest.mark.parametrize("law, ulps", [
        (Gamma(2.0, 2.0), 4), (Gamma(2.0, 3.5), 4),
        # scipy's own error at q = 1 - 1e-12, where x ~ p^2: 13 eps measured
        (Gamma(2.0, 0.5), 16)], ids=repr)
    def test_gamma_quantile_against_mpmath(self, law, ulps):
        mpmath = pytest.importorskip("mpmath")
        qs = [1.0 - 1e-12, 0.75, 0.5, 1e-3, 1e-100, 1e-300]
        with mpmath.workdps(40):
            want = np.array([float(_mp_quantile_log_ccdf(mpmath, law, mpmath.log(q)))
                             for q in map(mpmath.mpf, qs)])
        got = law.quantile_ccdf(np.array(qs))
        assert np.max(np.abs(got / want - 1.0)) <= ulps * np.finfo(float).eps

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

    @pytest.mark.parametrize("doc, ulps", [
        (BoundedDoc(Exponential(2.0), 1.0), 4), (BoundedDoc(Weibull(2.0, 1.0), 8.0), 4),
        (derive_doc_law(Weibull(0.5, 1.0), 1.5, SlowVaryLogPower(1.0, 1.0), 16.0).doc, 4),
        # scipy's P(1/2, y) is up to 8 eps off at these y, and x ~ p^2 doubles
        # that in gammaincinv's root: 17 eps measured
        (BoundedDoc(Gamma(1.0, 0.5), 0.3), 24), (BoundedDoc(Gamma(2.0, 2.0), math.inf), 4)],
        ids=["exponential", "weibull", "derived_log_power", "gamma_half", "gamma_two"])
    def test_small_uniforms_keep_their_digits(self, doc, ulps):
        # through q = 1 - u F(b), x would be about eps / (u F(b)) relative off
        mpmath = pytest.importorskip("mpmath")
        us = 10.0 ** np.arange(-12.0, -3.0, 2.0)
        with mpmath.workdps(40):
            want = np.array([float(_mp_quantile_log_ccdf(
                mpmath, doc.base, mpmath.log1p(-mpmath.mpf(u) * doc.cdf_at_bound)))
                for u in us])
        got = doc.quantile_from_uniform(us)
        assert np.max(np.abs(got / want - 1.0)) <= ulps * np.finfo(float).eps

    @pytest.mark.parametrize("name", experiment.preset_names())
    def test_preset_draws_stay_inside_the_bound(self, name):
        # at u = 1 example3 k2_b8's F(8) rounds to 1 (Fbar(8) = 1.6e-28), and a
        # gamma table's value is certified only to 1e-12 relative
        cfg = experiment.preset(name)
        docs = [experiment.build_model(channel, doc, cfg.alpha, cfg.ell, bound).doc
                for _, channel, doc, bound in cfg.cases()]
        u = np.array([1.0, 1.0 - 2.0 ** -53])
        for doc, quantile in zip(docs, sampling_quantiles(docs)):
            xs = quantile(u)
            assert np.all((xs >= 0.0) & (xs <= doc.bound)), (doc, xs.tolist())
            x = doc.quantile_from_uniform(1.0)
            assert type(x) is np.float64 and 0.0 <= x <= doc.bound, (doc, x)

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
            devs = [abs(math.expm1(float(ell.log_value(math.log(lam * x))
                                         - ell.log_value(math.log(x)))))
                    for x in xs]
            assert all(b <= a + 1e-15 for a, b in zip(devs, devs[1:]))
            assert devs[-1] < 0.05 if lam == 2.0 else devs[-1] < 0.08

    def test_positive_on_domain(self):
        for ell in (SlowVaryOne(), SlowVaryLogPower(1.0, -1.0),
                    SlowVaryGammaDoc(2.0, 2.0, 2.0)):
            ys = np.geomspace(1.0, 1e15, 30)
            assert np.all(np.isfinite(ell.log_value(np.log(ys))))

    def test_gamma_doc_closed_form_shape_two(self):
        # f(t) = 1 + doc_rate * t when the shape is 2, so
        # ell(y) = 1 / (1 + doc_rate * log(y) / channel_rate)
        ell = SlowVaryGammaDoc(2.0, 2.0, 2.0)
        for y in (1.0, 10.0, 1e4):
            assert float(ell.log_value(math.log(y))) == pytest.approx(
                -math.log1p(math.log(y)), rel=1e-12, abs=0.0)

    def test_gamma_doc_closed_form_matches_series(self):
        # non-integer shape goes through e^z Q(shape, z); compare against the
        # integer-shape series at a shape where both routes are valid
        series = SlowVaryGammaDoc(2.0, 3.0, 2.0)
        closed = SlowVaryGammaDoc(2.0, 3.0 + 1e-13, 2.0)
        for y in (2.0, 50.0, 1e6):
            assert float(series.log_value(math.log(y))) == pytest.approx(
                float(closed.log_value(math.log(y))), rel=0.0, abs=1e-9)

    @pytest.mark.parametrize("shape", [1.0, 2.0, 3.0, 5.0, 12.0])
    def test_gamma_doc_integer_series(self, shape):
        # f = e^z Q(shape, z) is the exponential series cut after
        # z^(shape-1) / (shape-1)!, evaluated at every z: no cap at 700
        mpmath = pytest.importorskip("mpmath")
        ell = SlowVaryGammaDoc(2.0, shape, 1.5)
        zs = [1e-3, 0.3, 2.0, 40.0, 700.0, 1e3]
        got = np.exp(-ell.log_value(1.5 / 2.0 * np.array(zs)))
        with mpmath.workdps(40):
            want = [mpmath.exp(z) * mpmath.gammainc(shape, z, mpmath.inf, regularized=True)
                    for z in map(mpmath.mpf, zs)]
        assert max(abs(g / float(w) - 1.0) for g, w in zip(got, want)) <= 1e-13

    @pytest.mark.parametrize("ell", [
        SlowVaryOne(), SlowVaryLogPower(1.0, 1.0), SlowVaryLogPower(1.0, -0.5),
        SlowVaryGammaDoc(2.0, 2.0, 2.0), SlowVaryGammaDoc(7.0, 5.0, 2.0),
        SlowVaryGammaDoc(2.0, 2.5, 1.5), SlowVaryGammaDoc(2.0, 0.5, 1.5)], ids=repr)
    def test_log_value_is_zero_at_one(self, ell):
        # ell(1) = 1 for each of these, so log ell(1) rounds to nothing
        assert ell.log_value(0.0) == 0.0

    @pytest.mark.parametrize("shape", [0.5, 1.5, 2.5])
    def test_gamma_doc_non_integer_shape(self, shape):
        # ell(1) = 1/f(0) = 1 exactly, and f(t) = e^(lam t) Q(shape, lam t)
        mpmath = pytest.importorskip("mpmath")
        doc_rate, channel_rate = 2.0, 1.5
        ell = SlowVaryGammaDoc(doc_rate, shape, channel_rate)
        assert ell.log_value(0.0) == 0.0
        for t in (1e-3, 0.01, 0.3, 2.0, 40.0):
            z = mpmath.mpf(doc_rate * t)
            want = mpmath.exp(z) * mpmath.gammainc(shape, z, mpmath.inf, regularized=True)
            got = math.exp(-float(ell.log_value(channel_rate * t)))
            assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_gamma_doc_beyond_closed_form_range(self):
        ell = SlowVaryGammaDoc(2.0, 0.5, 1.0)
        with pytest.raises(InvalidParameter):
            ell.log_value(400.0)          # doc_rate * t = 800

    def test_log_power_clamp(self):
        ell = SlowVaryLogPower(1.0, 2.0)
        assert float(ell.log_value(0.0)) == float(ell.log_value(1.0))


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


def _mp_quantile_log_ccdf(mpmath, law, log_q):
    """x with log ccdf(x) = log_q for an exponential, Weibull or gamma law,
    or a derived law of a log_power ell, in mpmath; the gamma and derived
    roots by findroot."""
    if isinstance(law, Exponential):
        return -log_q / law.rate
    if isinstance(law, Weibull):
        return law.scale * (-log_q) ** (mpmath.mpf(1) / law.index)
    if isinstance(law, Gamma):
        # the root in v = log(rate x), started from scipy's: of log P = log p
        # where q > 1/2, else of log Q = log q
        lower = log_q > -mpmath.log(2)
        target = mpmath.log(-mpmath.expm1(log_q)) if lower else log_q

        def level(v):
            y = mpmath.exp(v)
            if lower:
                return mpmath.log(mpmath.gammainc(law.shape, 0, y, regularized=True))
            return mpmath.log(mpmath.gammainc(law.shape, y, mpmath.inf, regularized=True))

        start = mpmath.log(law.rate * float(law.quantile_log_ccdf(float(log_q))))
        return mpmath.exp(mpmath.findroot(lambda v: level(v) - target, start)) / law.rate
    ell = law.ell
    # the clamp level as the law takes it, log(x_min) in double: 1 for x_min
    # = e, where the exact log of the double e is 1 - 5e-17
    floor = mpmath.mpf(math.log(ell.x_min))

    def h(s):
        return law.alpha * s - mpmath.log(ell.coeff * max(-s, floor) ** ell.exponent)

    s = mpmath.findroot(lambda s: h(s) - log_q, log_q / law.alpha)
    return _mp_quantile_log_ccdf(mpmath, law.channel, s)


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

    @pytest.mark.parametrize("bound", [1e-3, 1e-2])
    def test_power_coupling_bounded_doc_is_exponential(self, bound):
        # F(b) <= 1/2, so the truncated ccdf is built from the cdf, which must
        # not cancel as 1 - ccdf does
        derived = derive_doc_law(Exponential(1.0), 2.0, SlowVaryOne(), bound).doc
        exact = BoundedDoc(Exponential(2.0), bound)
        assert derived.cdf_at_bound == exact.cdf_at_bound
        xs = np.linspace(0.0, bound, 1001)[1:-1]
        np.testing.assert_array_equal(derived.ccdf(xs), exact.ccdf(xs))

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

    def test_survival_above_one_everywhere_rejected(self):
        # ell(1/Gbar(x)) = 0.01 up to the clamp: the raw survival is 100 e^(-x),
        # above 1 on all of [0, 1]
        with pytest.raises(DegenerateTruncation):
            derive_doc_law(Exponential(1.0), 1.0, SlowVaryLogPower(0.01, 1.0), 1.0)

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
                                     SlowVaryGammaDoc(2.0, 2.5, 1.5),
                                     SlowVaryOne(),
                                     SlowVaryGammaDoc(2.0, 3.0, 2.0)])
    def test_log_slope_is_derivative(self, ell):
        # Newton's h'(s) = alpha + log_slope(-s) must match h itself
        log_y = np.linspace(1.5, 30.0, 50)
        h = 1e-6
        fd = (ell.log_value(log_y + h) - ell.log_value(log_y - h)) / (2 * h)
        assert np.max(np.abs(ell.log_slope(log_y) - fd)) <= 1e-7

    def test_quantile_zero_where_law_starts_below_q(self):
        # coeff 2: the raw survival is 1/2 at x = 0, so every q above it maps to 0
        law = derive_doc_law(Exponential(1.0), 1.5, SlowVaryLogPower(2.0, 1.0), 8.0).doc.base
        assert law.ccdf(0.0) == pytest.approx(0.5)
        assert np.all(law.quantile_ccdf(np.array([0.6, 0.9, 1.0])) == 0.0)
        assert law.quantile_ccdf(0.25) > 0.0

    def test_quantile_of_one_skips_newton(self):
        # ell(1) = 1 - 1.1e-16 makes h(0) = 1.1e-16 > 0 = log q
        law = derive_doc_law(Exponential(2.0), 4.0,
                             SlowVaryLogPower(1.0 - 2.0 ** -53, 1.0), 2.0).doc.base
        assert dists._derived_log_raw(law.alpha, law.ell, 0.0) > 0.0
        with np.errstate(all="raise"):
            assert law.quantile_ccdf(1.0) == 0.0
            assert np.all(law.quantile_ccdf(np.array([1.0, 0.5]))[:1] == 0.0)
        # ell(1) = 1 - 1e-12 puts h(0) 1e-12 above 0, out of the residual
        # tolerance: only the log q < 0 guard keeps log q = 0 out of Newton,
        # whose root there is s = -1e-12 / alpha
        law = derive_doc_law(Weibull(0.5, 1.0), 1.5, SlowVaryLogPower(1.0 - 1e-12, 1.0),
                             16.0).doc.base
        s = law._solve_log_survival(np.array([0.0, -0.5]))
        assert s[0] == 0.0
        assert s[1] == pytest.approx(-0.5 / 1.5, rel=1e-14)

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


def _sampling_quantile(doc):
    """doc's Monte Carlo quantile when it is the only document of its pass."""
    (quantile,) = sampling_quantiles([doc])
    return quantile


def _panel_midpoint_uniforms(law, doc, table, t_hi):
    """Uniforms of doc whose table coordinate t is the midpoint of a panel,
    for every panel that doc reaches; t_hi is where the table's upper part
    ends."""
    n_lo = table.panels[0]
    t = (np.arange(n_lo) + 0.5) * (0.5 ** (1.0 / law.shape) / n_lo)
    out = [np.power(t, law.shape) / doc.cdf_at_bound]
    if len(table.panels) > 1:
        n_hi = table.panels[1]
        t0 = math.log(2.0)
        t = t0 + (np.arange(n_hi) + 0.5) * ((t_hi - t0) / n_hi)
        out.append(1.0 - (np.exp(-t) - doc.ccdf_at_bound) / doc.cdf_at_bound)
    u = np.concatenate(out)
    return u[u <= 1.0]


def _max_rel_error(law, doc, quantile, u):
    ref = _gamma_reference(law, doc, u)
    return float(np.max(np.abs(quantile(u) - ref) / ref))


class TestGammaQuantileTable:
    @pytest.mark.parametrize("rate,shape,bound", GAMMA_TABLE_CASES)
    def test_midpoints_certified(self, rate, shape, bound):
        law = Gamma(rate, shape)
        doc = BoundedDoc(law, bound)
        table = _sampling_quantile(doc)
        assert isinstance(table, dists._QuantileTable)
        assert len(table.panels) == (1 if doc.cdf_at_bound <= 0.5 else 2)
        assert table.max_error <= 1e-12
        u = _panel_midpoint_uniforms(law, doc, table, -math.log(doc.ccdf_at_bound))
        assert _max_rel_error(law, doc, table, u) <= 1e-12
        # between midpoints the cubic's error is smaller, up to how much its
        # fourth derivative changes across a panel
        u = RandomStream(61).uniforms(20_000)
        assert _max_rel_error(law, doc, table, u) <= 2e-12

    @pytest.mark.parametrize("law", sorted({Gamma(r, k) for r, k, _ in GAMMA_TABLE_CASES},
                                           key=repr), ids=repr)
    def test_documents_of_one_law_share_one_table(self, law):
        # one table serves every bound of the pass, each through its own
        # F(b) and Fbar(b), and is certified at the midpoints each one reaches
        docs = [BoundedDoc(law, b) for r, k, b in GAMMA_TABLE_CASES
                if Gamma(r, k) == law]
        tables = sampling_quantiles(docs)
        assert all(t.coeffs is tables[0].coeffs for t in tables)
        t_hi = max(-math.log(d.ccdf_at_bound) for d in docs if d.cdf_at_bound > 0.5)
        for doc, table in zip(docs, tables):
            u = _panel_midpoint_uniforms(law, doc, table, t_hi)
            assert _max_rel_error(law, doc, table, u) <= 1e-12
            u = RandomStream(63).uniforms(20_000)
            assert _max_rel_error(law, doc, table, u) <= 2e-12

    def test_lower_part_needs_few_panels(self):
        # certified in ratio form, z = x / t keeps its relative error uniform
        # down to x = 0; a cubic in x itself needs 4096 panels here
        table = _sampling_quantile(BoundedDoc(Gamma(2.0, 2.0), 3.0))
        assert table.panels[0] <= 1024

    def test_deep_bound_case_is_deep(self):
        for law, bound in ((Gamma(1.0, 0.5), 26.0), (Gamma(1.0, 2.0), 32.0),
                           (Gamma(1.0, 5.0), 40.0)):
            assert 0.0 < law.ccdf(bound) < 1e-12

    @pytest.mark.parametrize("rate,shape,bound", [(2.0, 2.0, 2.0), (2.0, 2.0, 4.0),
                                                  (1.0, 5.0, 8.0)])
    def test_draws_follow_the_law(self, rate, shape, bound):
        doc = BoundedDoc(Gamma(rate, shape), bound)
        u = RandomStream(62).uniforms(200_000)
        xs = _sampling_quantile(doc)(u)
        assert np.all((xs >= 0.0) & (xs <= bound * (1.0 + 1e-12)))
        d = ks_statistic_uniform(np.asarray(doc.cdf(xs)))
        assert d < 1.63 / math.sqrt(len(xs))
        # the exact path keeps a small p's digits too, so the two agree to
        # the table's own bound
        exact = doc.quantile_from_uniform(u)
        assert np.max(np.abs(xs - exact) / exact) <= 2e-12

    def test_infinite_bound_falls_back(self, caplog):
        doc = BoundedDoc(Gamma(2.0, 2.0), math.inf)
        with caplog.at_level(logging.DEBUG, logger="retxdist"):
            assert _sampling_quantile(doc) == doc.quantile_from_uniform
        assert "bound inf" in caplog.text and "exact quantile" in caplog.text

    def test_uncertified_table_falls_back(self, monkeypatch, caplog):
        monkeypatch.setattr(dists, "_TABLE_MAX_PANELS", dists._TABLE_PANELS)
        docs = [BoundedDoc(Gamma(2.0, 2.0), b) for b in (3.0, 2.0)]
        with caplog.at_level(logging.DEBUG, logger="retxdist"):
            assert sampling_quantiles(docs) == [d.quantile_from_uniform for d in docs]
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        assert "Gamma(rate=2.0, shape=2.0) up to bound 3, 64+64 panels" in record.message
        assert "midpoint error" in record.message

    def test_silent_by_default(self, capsys):
        doc = BoundedDoc(Gamma(2.0, 2.0), math.inf)
        _sampling_quantile(doc)
        assert capsys.readouterr() == ("", "")

    def test_other_laws_take_the_exact_path(self):
        docs = [BoundedDoc(Exponential(2.0), 3.0), BoundedDoc(Weibull(0.5, 16.0), 3.0),
                BoundedDoc(Gamma(2.0, 2.0), math.inf)]
        assert sampling_quantiles(docs) == [d.quantile_from_uniform for d in docs]


class TestCertifiedPart:
    def test_negative_function_with_a_kink_does_not_certify(self, monkeypatch):
        # y = -1 - |t - 0.3| kinks inside a panel; the midpoint miss is taken
        # relative to |y|, so a negative y misses as a positive one does
        monkeypatch.setattr(dists, "_TABLE_MAX_PANELS", dists._TABLE_PANELS)
        for sign in (-1.0, 1.0):
            _, n, err = dists._certified_part(
                lambda t, guess: sign * (-1.0 - np.abs(t - 0.3)),
                lambda t, y: sign * -np.sign(t - 0.3), 0.0, 1.0)
            assert n == dists._TABLE_PANELS
            assert err > 1e-4


# Derived laws with ell != 1 whose tables certify, with the bounds that
# share one: perfbench's derived-weibull law, split at its clamp kink,
# log_power laws on the other channel families, and one with ell(1) < 1,
# whose raw survival starts above 1, so that its quantile jumps from 0 at
# q = 1 to the root of h(s) = 0 just below.
DERIVED_TABLE_CASES = [
    (Weibull(0.5, 1.0), 1.5, SlowVaryLogPower(1.0, 1.0), (4.0, 16.0)),
    (Exponential(2.0), 1.5, SlowVaryLogPower(1.0, 1.0), (0.2, 3.0)),
    (Gamma(2.0, 2.0), 0.5, SlowVaryLogPower(1.0, 2.0), (3.0,)),
    (Weibull(2.0, 2.0), 2.0, SlowVaryLogPower(0.5, -0.5, 5.0), (4.0,)),
]


def _derived_docs(channel, alpha, ell, bounds):
    return [derive_doc_law(channel, alpha, ell, b).doc for b in bounds]


def _derived_reference(doc, u):
    """x for uniforms u through the law's Newton root at the cancellation-free
    log q: log1p(-u F(b)) up to p = 1/2, log((1 - u) F(b) + Fbar(b)) above."""
    p = u * doc.cdf_at_bound
    with np.errstate(divide="ignore"):
        log_q = np.where(p <= 0.5, np.log1p(-p),
                         np.log((1.0 - u) * doc.cdf_at_bound + doc.ccdf_at_bound))
    return doc.base.quantile_log_ccdf(log_q)


def _derived_midpoint_uniforms(doc, table):
    """Uniforms of doc at the midpoint t of every panel that doc reaches."""
    t = np.concatenate([t0 + (np.arange(n) + 0.5) * ((t1 - t0) / n)
                        for t0, t1, n in zip(table.knots, table.knots[1:], table.panels)])
    q = np.exp(-t)
    u = np.where(q >= 0.5, -np.expm1(-t), 1.0 - (q - doc.ccdf_at_bound)) / doc.cdf_at_bound
    return u[u <= 1.0]


def _max_rel_miss(x, ref):
    return float(np.max(np.abs(x - ref) / ref))


class TestDerivedQuantileTable:
    @pytest.mark.parametrize("channel,alpha,ell,bounds", DERIVED_TABLE_CASES,
                             ids=lambda v: repr(v)[:24])
    def test_midpoints_certified(self, channel, alpha, ell, bounds):
        docs = _derived_docs(channel, alpha, ell, bounds)
        for doc, table in zip(docs, sampling_quantiles(docs)):
            assert isinstance(table, dists._QuantileTable)
            assert table.max_error <= 1e-12
            u = _derived_midpoint_uniforms(doc, table)
            assert _max_rel_miss(table(u), _derived_reference(doc, u)) <= 1e-12
            u = RandomStream(64).uniforms(20_000)
            assert _max_rel_miss(table(u), _derived_reference(doc, u)) <= 2e-12

    def test_bounds_of_one_law_share_one_table(self):
        docs = _derived_docs(*DERIVED_TABLE_CASES[0])
        tables = sampling_quantiles(docs)
        assert tables[0].coeffs is tables[1].coeffs
        assert [t.bound for t in tables] == [4.0, 16.0]
        assert tables[0].knots[-1] == -math.log(docs[1].ccdf_at_bound)

    def test_kink_split_takes_the_one_sided_slope(self):
        # h(s) = 1.5 s - log(max(-s, 1)): h' is 1.5 above the kink s = -1 and
        # 1.5 + 1 just below it, at t = -h(-1) = 1.5
        (table,) = sampling_quantiles(_derived_docs(*DERIVED_TABLE_CASES[0])[1:])
        t0, t_k, t_hi = table.knots
        assert (t0, t_k) == (0.0, 1.5)
        n_a, n_b = table.panels
        assert n_b <= 1024
        c0, c1, c2, c3 = table.coeffs[:, n_a - 1:n_a + 1]
        # the panel ending at the kink, and the one starting there: ds/dt = -1 / h'
        assert c0[1] == pytest.approx(-1.0, rel=1e-15)
        assert c1[0] + 2.0 * c2[0] + 3.0 * c3[0] == pytest.approx(-t_k / n_a / 1.5, rel=1e-12)
        assert c1[1] == pytest.approx(-(t_hi - t_k) / n_b / 2.5, rel=1e-12)

    def test_draws_follow_the_law(self):
        doc = _derived_docs(*DERIVED_TABLE_CASES[0])[1]
        xs = sampling_quantiles([doc])[0](RandomStream(65).uniforms(200_000))
        assert np.all((xs >= 0.0) & (xs <= doc.bound))
        d = ks_statistic_uniform(np.asarray(doc.cdf(xs)))
        assert d < 1.63 / math.sqrt(len(xs))

    def test_deep_bound_keeps_u_near_one(self):
        # Fbar(9) = e^-27 / 18 = 1.0e-13: log1p(-u F(b)) would round u F(b)
        # to 1 - Fbar(b) within 1e-16 absolute, 1e-3 of Fbar(b)
        doc = derive_doc_law(Exponential(2.0), 1.5, SlowVaryLogPower(1.0, 1.0), 9.0).doc
        assert 0.0 < doc.ccdf_at_bound <= 1e-12
        table = sampling_quantiles([doc])[0]
        assert isinstance(table, dists._QuantileTable)
        u = 1.0 - np.array([0.0, 2.0 ** -53, 2.0 ** -52, 1e-15, 1e-13, 1e-10, 1e-6])
        x = table(u)
        assert np.all(x <= doc.bound)
        assert x[0] == doc.bound or x[0] == pytest.approx(doc.bound, rel=1e-12)
        assert _max_rel_miss(x, _derived_reference(doc, u)) <= 1e-12

    def test_draws_stay_inside_their_bound(self):
        # at u = 1 the table lands on t = -log Fbar(b), where x rounds to
        # within an ulp or so of b, on either side
        channel, alpha, ell, _ = DERIVED_TABLE_CASES[0]
        docs = _derived_docs(channel, alpha, ell, np.geomspace(0.3, 16.0, 40))
        for doc, table in zip(docs, sampling_quantiles(docs)):
            x = table(np.array([1.0, 1.0 - 2.0 ** -53]))
            assert np.all(x <= doc.bound)
            assert x[0] == pytest.approx(doc.bound, rel=1e-14)

    def test_quantile_is_zero_below_the_law_start(self):
        # coeff 2: the raw survival starts at 1/2, so every q above it maps to
        # x = 0 and the table starts at t0 = log 2
        doc = derive_doc_law(Exponential(2.0), 3.0, SlowVaryLogPower(2.0, 1.0), 3.0).doc
        table = sampling_quantiles([doc])[0]
        assert table.knots[0] == pytest.approx(math.log(2.0), rel=1e-15)
        p = np.array([1e-12, 0.25, 0.4999])
        assert np.all(table(p / doc.cdf_at_bound) == 0.0)
        u = np.array([0.6, 0.9, 1.0]) / doc.cdf_at_bound
        assert _max_rel_miss(table(u[u <= 1.0]), _derived_reference(doc, u[u <= 1.0])) <= 1e-12

    def test_uncertified_law_falls_back(self, monkeypatch, caplog):
        monkeypatch.setattr(dists, "_TABLE_MAX_PANELS", dists._TABLE_PANELS)
        docs = _derived_docs(*DERIVED_TABLE_CASES[0])
        with caplog.at_level(logging.DEBUG, logger="retxdist"):
            assert sampling_quantiles(docs) == [d.quantile_from_uniform for d in docs]
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        assert "up to bound 16, 64+64 panels, midpoint error" in record.message

    def test_flat_start_falls_back(self, caplog):
        # alpha = 1 with the exact gamma ell: h'(0) = 0, so ds/dt is infinite
        # at t = 0 and no cubic holds s there
        doc = derive_doc_law(Exponential(2.0), 1.0, SlowVaryGammaDoc(2.0, 2.0, 2.0), 3.0).doc
        with caplog.at_level(logging.DEBUG, logger="retxdist"):
            assert sampling_quantiles([doc]) == [doc.quantile_from_uniform]
        assert "64 panels, midpoint error inf" in caplog.text

    def test_certificate_sees_past_newtons_tolerance(self, caplog):
        # h(s) = 2 s + log(1 - s) is not linear near s = 0, where x ~ s^2 is
        # small: a midpoint within Newton's absolute residual tolerance can
        # still miss by far more than 1e-12 relative, and the step Newton
        # would take from it shows that
        doc = derive_doc_law(Weibull(0.5, 1.0), 2.0, SlowVaryGammaDoc(2.0, 2.0, 2.0), 16.0).doc
        with caplog.at_level(logging.DEBUG, logger="retxdist"):
            assert sampling_quantiles([doc]) == [doc.quantile_from_uniform]
        assert "16384 panels, midpoint error" in caplog.text

    def test_failed_root_falls_back(self, monkeypatch, caplog):
        monkeypatch.setattr(DerivedLaw, "QUANTILE_MAX_ITER", 0)
        docs = _derived_docs(*DERIVED_TABLE_CASES[0])
        with caplog.at_level(logging.DEBUG, logger="retxdist"):
            assert sampling_quantiles(docs) == [d.quantile_from_uniform for d in docs]
        assert "still moving" in caplog.text and "exact quantile" in caplog.text

    def test_closed_form_root_takes_the_exact_path(self):
        # ell == 1: the root log q / alpha needs no table
        docs = [derive_doc_law(Exponential(1.0), 2.0, SlowVaryOne(), b).doc for b in (1.0, 4.0)]
        assert sampling_quantiles(docs) == [d.quantile_from_uniform for d in docs]


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
    if hasattr(obj, "log_value"):
        return [("log_value", obj.log_value, LOG_YS), ("log_slope", obj.log_slope, LOG_YS)]
    return [("ccdf", obj.ccdf, XS), ("log_ccdf", obj.log_ccdf, XS),
            ("cdf", obj.cdf, XS), ("quantile_ccdf", obj.quantile_ccdf, QS),
            ("quantile_log_ccdf", obj.quantile_log_ccdf, LOG_QS)]


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

    @pytest.mark.parametrize("law", [Exponential(2.0), Weibull(0.5, 16.0),
                                     Weibull(2.0, 2.0), Gamma(2.0, 2.0),
                                     Gamma(0.7, 3.2)] + DERIVED_LAWS,
                             ids=lambda o: repr(o)[:60])
    def test_quantile_ccdf_is_quantile_log_ccdf_at_log_q(self, law):
        qs = np.concatenate([QS, [1.0, 0.5, 5e-324]])
        got = law.quantile_ccdf(qs)
        assert got.tobytes() == law.quantile_log_ccdf(np.log(qs)).tobytes()
