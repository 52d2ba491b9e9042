"""Exact-CCDF quadrature checks.

The oracle is validated against routes it does not share code with: the
uniform-transform identity (unbounded unit-index models), the
integer-index finite sum, mpmath references and Monte Carlo.
"""

import math

import numpy as np
import pytest

from conftest import model_1a, model_3, model_4, model_log_power
from retxdist import cli, experiment, oracle
from retxdist.asym import ApproxParams, exact_integer_ccdf, log_exact_integer_ccdf
from retxdist.dists import BoundedDoc, CoupledModel, Exponential, SlowVaryOne
from retxdist.errors import InvalidParameter, QuadratureFailure
from retxdist.mc import empirical_ccdf, run_tally
from retxdist.oracle import OracleResult, ccdf_exact, ccdf_exact_curve

EPS = 2.0 ** -52
# The fixed rule's nodes: one exp-sinh row, or two where log_power's kink splits it.
NODES = 197


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
        assert res.subdivisions == NODES
        # the log_power kink at w = 1/e splits the rule where it lies above
        # g (bound 16), and not where it lies below (bound 0.5)
        assert ccdf_exact(model_log_power(16.0), 10).subdivisions == 2 * NODES
        assert ccdf_exact(model_log_power(0.5), 10).subdivisions == NODES
        assert ccdf_exact(exp_pair_b2, 0).subdivisions == 0

    def test_negative_n_rejected(self, exp_pair_b2):
        with pytest.raises(InvalidParameter):
            ccdf_exact(exp_pair_b2, -1)

    @pytest.mark.parametrize("rate", [1e-16, 1e-15, 1e-12, 1e-8, 1e-4])
    def test_little_document_mass_below_the_bound(self, rate):
        # Exp(1) channel, Exp(rate) document bounded at 1: F(b) ~ rate. The
        # reference scales rate out of the integrand, so mpmath's absolute
        # tolerance does not swamp the value.
        mpmath = pytest.importorskip("mpmath")
        m = CoupledModel.parametric(Exponential(1.0), Exponential(rate), rate,
                                    SlowVaryOne(), 1.0)
        with mpmath.workdps(60):
            lam = mpmath.mpf(rate)
            for n in (1, 5, 100):
                ref = mpmath.quad(lambda x: mpmath.exp(-lam * x) * (1 - mpmath.exp(-x)) ** n,
                                  [0, 0.5, 0.9, 1]) * lam / -mpmath.expm1(-lam)
                res = ccdf_exact(m, n)
                assert abs(res.value / float(ref) - 1.0) <= 2e-14, n
                assert res.subdivisions == NODES, n

    def test_log_power_matches_reference(self, perfbench):
        # ell's clamp at x_min kinks H at w = 1/e, inside [g, 1]; the split
        # rule's coarse level is at its worst near n = 24 on b16
        pytest.importorskip("mpmath")
        reference = perfbench("reference")
        cfg = perfbench("workloads").DERIVED_WEIBULL
        for spec in reference.case_specs(cfg):
            m = model_log_power(spec.bound)
            for n in (1, 2, 3, 4, 24, 1000):
                ref = reference.log_ccdf(spec, n)
                err = abs(ccdf_exact(m, n).log_value - ref)
                assert err <= 4 * EPS * max(1.0, abs(ref)), (spec.label, n)


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
        # example3 k2_b8: alpha = 4 gave the document-quantile integrand a
        # v^(1/4) cusp at v = 0; in y, H rises linearly from 0 on the scale
        # g = e^-16, a layer far narrower than the 1/n one of the weight
        m = model_3(2.0, 2.0)
        p = ApproxParams.from_model(m)
        logs = [ccdf_exact(m, n).log_value for n in (178, 1_000, 10_000)]
        assert all(math.isfinite(v) for v in logs)
        assert logs[0] > logs[1] > logs[2]
        for n, v in zip((178, 1_000, 10_000), logs):
            assert v == pytest.approx(log_exact_integer_ccdf(p, n), rel=1e-10)

    def test_k2_b8_auto_grid_matches_beta(self, capsys):
        # example3 k2_b8 runs to n ~ 7.3e9 and P ~ 1e-385; there n g ~ 800,
        # so H rises in s near the last nodes of the rule
        mpmath = pytest.importorskip("mpmath")
        assert cli.main(["oracle", "--preset", "example3"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        tail = {int(r[1]): float(r[3]) for r in rows if r[0] == "k2_b8"}
        logs = list(tail.values())
        assert max(tail) > 7e9
        assert all(b <= a for a, b in zip(logs, logs[1:]))
        # exact coupling with alpha = 4 and g = Gbar(8) = e^-16:
        # P[N > n] = alpha B_{1-g}(n+1, alpha) / (1 - g^alpha)
        with mpmath.workdps(30):
            g = mpmath.exp(-16)
            for n in (6189658, 287298483, 7251749900):
                ref = float(mpmath.log(4 * mpmath.betainc(n + 1, 4, 0, 1 - g)
                                       / (1 - g ** 4)))
                assert abs(tail[n] - ref) <= 1e-9, n

    def test_no_document_quantile(self, monkeypatch):
        # the oracle maps through the channel quantile and the document
        # survival only, so it shares no law method with Monte Carlo
        class NoQuantile:
            def __init__(self, law):
                self.law = law

            def __getattr__(self, name):
                if name.startswith("quantile"):
                    raise AssertionError(f"document {name} called")
                return getattr(self.law, name)

        def refuse(*args, **kwargs):
            raise AssertionError("document quantile_from_uniform called")

        models = [model_1a(1.0), model_4(2.0), model_log_power(16.0)]
        expected = [[ccdf_exact(m, n).log_value for n in (1, 10, 1000)] for m in models]
        monkeypatch.setattr(BoundedDoc, "quantile_from_uniform", refuse)
        for m, want in zip(models, expected):
            bare = CoupledModel(m.channel, BoundedDoc(NoQuantile(m.doc.base), m.bound),
                                m.alpha, m.ell)
            assert [ccdf_exact(bare, n).log_value for n in (1, 10, 1000)] == want


class TestSweep:
    @pytest.mark.parametrize("name", experiment.preset_names()
                             + ["derived-exp", "derived-weibull"])
    def test_auto_grid(self, perfbench, name):
        # every case over its whole auto candidate grid, deep tails included
        workloads = perfbench("workloads")
        derived = {c["name"]: c for c in (workloads.DERIVED_EXPONENTIAL,
                                          workloads.DERIVED_WEIBULL)}
        cfg = (experiment.parse_config(dict(derived[name])) if name in derived
               else experiment.preset(name))
        for label, channel, doc, bound in cfg.cases():
            m = experiment.build_model(channel, doc, cfg.alpha, cfg.ell, bound)
            grid = experiment.candidate_grid(cfg, m)
            lone = [ccdf_exact(m, n) for n in grid]
            # a value does not depend on the calls before it
            assert ccdf_exact_curve(m, grid) == lone, label
            assert [ccdf_exact(m, n) for n in reversed(grid)] == lone[::-1], label
            logs = [r.log_value for r in lone]
            assert all(math.isfinite(v) for v in logs), label
            assert all(b <= a for a, b in zip(logs, logs[1:])), label
            if isinstance(m.ell, SlowVaryOne) and float(m.alpha).is_integer():
                p = ApproxParams.from_model(m)
                for n, v in zip(grid, logs):
                    ref = log_exact_integer_ccdf(p, n)
                    assert abs(v - ref) <= 8 * EPS * max(1.0, abs(ref)), (label, n)


def _preset_models(*names):
    for name in names or experiment.preset_names():
        cfg = experiment.preset(name)
        for label, channel, doc, bound in cfg.cases():
            yield f"{name}/{label}", experiment.build_model(channel, doc, cfg.alpha,
                                                            cfg.ell, bound)


class TestFixedRule:
    @pytest.mark.parametrize("m,nodes", [(model_1a(2.0), NODES), (model_1a(700.0), NODES),
                                         (model_log_power(16.0), 2 * NODES)])
    def test_fixed_cost(self, m, nodes):
        # the same nodes at every n and every bound, g = 9.9e-305 included
        assert [ccdf_exact(m, n).subdivisions for n in (1, 10**3, 10**7)] == [nodes] * 3

    @pytest.mark.parametrize("bound", [744.0, 745.0])
    def test_subnormal_channel_survival(self, bound):
        # g = 1e-323 and 5e-324: H rises on a scale of n g in s, far below
        # the first node, and the bound hardly matters:
        # P[N > n] = 2 / ((n + 1)(n + 2))
        m = model_1a(bound)
        assert 0.0 < m.gbar_bound < 2e-323
        for n in (1, 10, 1000):
            want = math.log(2.0 / ((n + 1) * (n + 2)))
            assert ccdf_exact(m, n).log_value == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("name", experiment.preset_names())
    def test_cli_rows_equal_cold_lone_calls(self, capsys, name):
        # repeated and unsorted counts give the bits of lone calls
        counts = [1000, 5, 1000]
        argv = ["oracle", "--preset", name] + [a for n in counts for a in ("--n", str(n))]
        assert cli.main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        want = []
        for label, m in _preset_models(name):
            for n in counts:
                r = ccdf_exact(m, n)
                want.append(",".join([label.split("/")[1], str(r.n)]
                                     + [cli._fmt(v) for v in (r.value, r.log_value,
                                                              r.est_abs_err)]
                                     + [str(r.subdivisions)]))
        assert rows == want


class TestRule:
    """The exp-sinh rule alone, on integrands with known integrals."""

    def test_node_table(self):
        assert len(oracle._SIGMA) == NODES
        assert np.all(np.diff(oracle._SIGMA) > 0.0)
        assert oracle._SIGMA[0] < 1e-18 and oracle._SIGMA[-1] < 800.0
        assert np.all(oracle._WEIGHTS > 0.0)

    @pytest.mark.parametrize("a", [0.0, 1.0, 2.0, 0.5, 2.5, 5.0])
    def test_gamma_moments(self, a):
        # int_0^inf s^a e^(-s) ds = Gamma(a + 1); s^(1/2) has a root at 0
        quad = oracle._integrate(lambda s: s ** a, oracle._SIGMA[None, :],
                                 oracle._WEIGHTS[None, :])
        assert quad.evaluations == NODES
        assert abs(quad.value / math.gamma(a + 1.0) - 1.0) <= 4 * EPS
        assert abs(quad.coarse / math.gamma(a + 1.0) - 1.0) <= 1e-11

    def test_coarse_level_is_the_half_step_rule(self):
        # the even-k nodes, built afresh at h = 1/16, are the coarse level
        t = np.arange(-64, 65) / 16.0
        sigma = np.exp(0.5 * np.pi * np.sinh(t))
        keep = sigma < 800.0
        sigma = sigma[keep]
        weights = np.pi / 32.0 * np.cosh(t[keep]) * sigma * np.exp(-sigma)
        assert np.array_equal(sigma, oracle._SIGMA[::2])
        quad = oracle._integrate(lambda s: 1.0 / (1.0 + s), oracle._SIGMA[None, :],
                                 oracle._WEIGHTS[None, :])
        assert quad.coarse == pytest.approx(float(np.sum(weights / (1.0 + sigma))),
                                            rel=2 * EPS)

    @pytest.mark.parametrize("n", [1, 24, 10**7])
    def test_split_pieces_meet_at_the_kink(self, n):
        # min(s, s_c) kinks where log_power's H does; each piece is smooth
        m = model_log_power(16.0)
        g = m.gbar_bound
        s_c = -n * math.log1p(-(1.0 / m.ell.x_min - g) / (1.0 - g))
        s, w = oracle._nodes(m, n)
        assert s.shape == w.shape == (2, NODES)
        assert np.all(np.diff(s, axis=1) >= 0.0) and np.all(w >= 0.0)
        assert s[0].max() <= s_c <= s[1].min()
        quad = oracle._integrate(lambda x: np.minimum(x, s_c), s, w)
        assert quad.evaluations == 2 * NODES
        want = -math.expm1(-s_c)
        assert abs(quad.value / want - 1.0) <= 4 * EPS
        assert abs(quad.coarse / want - 1.0) <= 1e-13

    @pytest.mark.parametrize("n", [1, 10**3, 10**7, 10**12])
    def test_unbounded_harmonic_to_rounding(self, exp_pair_unbounded, n):
        # H(w) = w: the integrand is 1 - e^(-s/n) and P[N > n] = 1/(n + 1)
        ref = -math.log1p(n)
        assert abs(ccdf_exact(exp_pair_unbounded, n).log_value - ref) <= 2 * EPS * abs(ref)


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

        def counted(m, n):
            seen.append(n)
            return ccdf_exact(m, n)

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
        top = 1.0 - m.gbar_bound
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

    def test_failure_names_n_levels_and_nodes(self, exp_pair_b1, monkeypatch):
        # a tolerance below a call's measured level gap: REL_TOL is read at
        # call time
        res = ccdf_exact(exp_pair_b1, 1000)
        gap = res.est_abs_err / res.value
        assert gap > 0.0
        monkeypatch.setattr(oracle, "REL_TOL", 0.5 * gap)
        with pytest.raises(QuadratureFailure,
                           match=r"^n=1000: levels h=1/32 \(\S+\) and h=1/16 \(\S+\) "
                                 rf"differ by \S+ relative, above \S+, over {NODES} nodes$"):
            ccdf_exact(exp_pair_b1, 1000)

    @pytest.mark.parametrize("integral", [0.0, -1e-30])
    def test_nonpositive_integral_names_its_spend(self, exp_pair_b1, monkeypatch,
                                                  integral):
        passes = []

        def nonpositive(f, *args):
            passes.append(f)
            return oracle._Levels(integral, integral, NODES)

        monkeypatch.setattr(oracle, "integrate_adaptive", nonpositive)
        with pytest.raises(QuadratureFailure, match=rf"^n=5: nonpositive integral {integral} "
                                                    rf"over {NODES} nodes$"):
            ccdf_exact(exp_pair_b1, 5)
        assert len(passes) == 1

    def test_non_monotone_curve_names_its_spend(self, exp_pair_b1, monkeypatch):
        def rising(m, n):
            return OracleResult(n, 0.0, 0.0, 150 * n, -100.0 + n)

        monkeypatch.setattr(oracle, "ccdf_exact", rising)
        with pytest.raises(QuadratureFailure, match=r"^oracle curve not monotone at n=2: "
                                                    r"log -98.0 after -99.0 "
                                                    r"\(300 nodes\)$"):
            ccdf_exact_curve(exp_pair_b1, [1, 2, 3])
