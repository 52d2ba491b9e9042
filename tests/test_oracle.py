"""Exact-CCDF quadrature checks.

The oracle is validated against routes it does not share code with: the
uniform-transform identity (unbounded unit-index models), the
integer-index finite sum, mpmath references and Monte Carlo.
"""

import math
import re
from collections import Counter

import numpy as np
import pytest

from conftest import model_1a, model_3, model_4, model_log_power
from retxdist import cli, experiment, oracle
from retxdist.asym import ApproxParams, exact_integer_ccdf, log_exact_integer_ccdf
from retxdist.dists import (BoundedDoc, CoupledModel, Exponential, SlowVaryLogPower,
                            SlowVaryOne)
from retxdist.errors import InvalidParameter, QuadratureFailure
from retxdist.mc import empirical_ccdf, run_tally
from retxdist.oracle import OracleResult, ccdf_exact, ccdf_exact_curve
from retxdist.quadrature import QuadResult, panel_nodes


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
                assert res.subdivisions <= 40, n

    def test_log_power_matches_reference(self, perfbench):
        # ell's clamp at x_min kinks H at w = 1/e, inside [g, 1]
        pytest.importorskip("mpmath")
        reference = perfbench("reference")
        spec = reference.CaseSpec("b16", {"family": "weibull", "index": 0.5, "scale": 1.0},
                                  None, 16.0, 1.5,
                                  {"kind": "log_power", "coeff": 1.0, "exponent": 1.0})
        m = model_log_power(16.0)
        for n in range(1, 5):
            ref = reference.log_ccdf(spec, n)
            assert abs(ccdf_exact(m, n).log_value - ref) <= oracle.REL_TOL, n


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
        # example3 k2_b8 runs to n ~ 7.3e9, where the 1/n layer is 1e-10 wide
        # and P ~ 1e-385; the seed edges reach below both 1/n and g = e^-16
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
        def cold(m, n):
            oracle._seed.cache_clear()
            return ccdf_exact(m, n)

        workloads = perfbench("workloads")
        derived = {c["name"]: c for c in (workloads.DERIVED_EXPONENTIAL,
                                          workloads.DERIVED_WEIBULL)}
        cfg = (experiment.parse_config(dict(derived[name])) if name in derived
               else experiment.preset(name))
        for label, channel, doc, bound in cfg.cases():
            m = experiment.build_model(channel, doc, cfg.alpha, cfg.ell, bound)
            grid = experiment.candidate_grid(cfg, m)
            lone = [cold(m, n) for n in grid]
            # a memo warmed by other calls, in either order, gives the
            # bits of a cold one
            oracle._seed.cache_clear()
            assert ccdf_exact_curve(m, grid) == lone, label
            oracle._seed.cache_clear()
            assert [ccdf_exact(m, n) for n in reversed(grid)] == lone[::-1], label
            logs = [r.log_value for r in lone]
            assert all(math.isfinite(v) for v in logs), label
            assert all(b <= a for a, b in zip(logs, logs[1:])), label
            if isinstance(m.ell, SlowVaryOne) and float(m.alpha).is_integer():
                p = ApproxParams.from_model(m)
                for n, v in zip(grid, logs):
                    ref = log_exact_integer_ccdf(p, n)
                    assert abs(v - ref) <= 1e-13 * max(1.0, abs(ref)), (label, n)


def _preset_models(*names):
    for name in names or experiment.preset_names():
        cfg = experiment.preset(name)
        for label, channel, doc, bound in cfg.cases():
            yield f"{name}/{label}", experiment.build_model(channel, doc, cfg.alpha,
                                                            cfg.ell, bound)


class TestSeed:
    @pytest.mark.parametrize("n", [1, 2, 10, 10**4, 10**7])
    def test_edges_are_lattice_points(self, n):
        # a bound of 0.5 puts the log_power kink at w = 1/e below g, 16 above
        models = [*_preset_models(), ("log_power b0.5", model_log_power(0.5)),
                  ("log_power b16", model_log_power(16.0))]
        for label, m in models:
            g = m.gbar_bound
            edges, h = oracle._seed(m, oracle._depth(m, n))
            assert h.size == 15 * (edges.size - 1), label
            assert edges[0] == 0.0 and edges[-1] == 1.0, label
            assert np.all(np.diff(edges) > 0.0), label
            kink = None
            if isinstance(m.ell, SlowVaryLogPower):
                kink = (1.0 / m.ell.x_min - g) / (1.0 - g)
            assert (kink in edges.tolist()) == (kink is not None and 0.0 < kink < 1.0), label
            lattice = [y for y in edges[1:].tolist() if y != kink]
            for y in lattice:
                j = round(-6.0 * math.log10(y))
                assert y == 10.0 ** (-j / 6), (label, y)
            y0 = 0.25 * min(1.0 / n, g)
            assert 10.0 ** (-1 / 6) * y0 < lattice[0] <= y0, label

    def test_model_evaluates_each_seed_once(self):
        # the channel quantile runs once per H evaluation; over a curve and
        # later lone calls, the nodes of each (model, depth) seed reach it
        # once (refinement nodes are other points)
        class Counting:
            def __init__(self, law):
                self.law = law
                self.seen = []

            def quantile_ccdf(self, q):
                self.seen.extend(np.ravel(q).tolist())
                return self.law.quantile_ccdf(q)

            def __getattr__(self, name):
                return getattr(self.law, name)

        oracle._seed.cache_clear()
        base = model_log_power(16.0)
        channel = Counting(base.channel)
        m = CoupledModel(channel, base.doc, base.alpha, base.ell)
        g = m.gbar_bound
        grid = [round(10 ** (k / 5)) for k in range(30)]
        assert len(set(grid)) == 30
        ccdf_exact_curve(m, grid)
        for n in reversed(grid):
            ccdf_exact(m, n)
        depths = sorted({oracle._depth(m, n) for n in grid})
        assert len(depths) > 1
        want = Counter()
        for depth in depths:
            edges, _ = oracle._seed(m, depth)
            _, ys = panel_nodes(edges[:-1], edges[1:])
            want.update((g + (1.0 - g) * ys.ravel()).tolist())
        seen = Counter(channel.seen)
        assert all(seen[w] == k for w, k in want.items())

    @pytest.mark.parametrize("bound", [744.0, 745.0])
    def test_subnormal_channel_survival(self, bound):
        # g = 1e-323 and 5e-324: a quarter of g rounds to 0, and the seed
        # starts at the lattice's last point; the bound then hardly matters,
        # P[N > n] = 2 / ((n + 1)(n + 2))
        m = model_1a(bound)
        assert 0.0 < m.gbar_bound < 2e-323
        for n in (1, 10, 1000):
            want = math.log(2.0 / ((n + 1) * (n + 2)))
            assert ccdf_exact(m, n).log_value == pytest.approx(want, rel=1e-13)

    def test_equal_models_share_one_memo_entry(self):
        oracle._seed.cache_clear()
        a, b = model_log_power(16.0), model_log_power(16.0)
        assert a is not b and a == b
        first = ccdf_exact(a, 100)
        assert ccdf_exact(b, 100) == first
        info = oracle._seed.cache_info()
        assert (info.currsize, info.hits) == (1, 1)
        depth = oracle._depth(a, 100)
        assert oracle._seed(a, depth) is oracle._seed(b, depth)

    @pytest.mark.parametrize("name", experiment.preset_names())
    def test_cli_rows_equal_cold_lone_calls(self, capsys, name):
        # repeated and unsorted counts: the second n = 1000 finds the memo
        # warmed by the first and by n = 5
        counts = [1000, 5, 1000]
        oracle._seed.cache_clear()
        argv = ["oracle", "--preset", name] + [a for n in counts for a in ("--n", str(n))]
        assert cli.main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        want = []
        for label, m in _preset_models(name):
            for n in counts:
                oracle._seed.cache_clear()
                r = ccdf_exact(m, n)
                want.append(",".join([label.split("/")[1], str(r.n)]
                                     + [cli._fmt(v) for v in (r.value, r.log_value,
                                                              r.est_abs_err)]
                                     + [str(r.subdivisions)]))
        assert rows == want


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

    def test_failure_on_tiny_budget(self, exp_pair_b1, monkeypatch):
        # the budget is read at call time
        monkeypatch.setattr(oracle, "MAX_PANELS", 9)
        with pytest.raises(QuadratureFailure, match=r"above target after \d+ panels "
                                                    r"and \d+ evaluations$"):
            ccdf_exact(exp_pair_b1, 100_000)

    def test_failure_is_fast(self, exp_pair_b1):
        # n = 1e5 lies in the band where REL_TOL is below the integrand's
        # rounding noise (ROADMAP item 3); a failing call stops at the
        # default budget instead of spending about 840,000 panels
        with pytest.raises(QuadratureFailure, match=r"after \d+ panels") as info:
            ccdf_exact(exp_pair_b1, 100_000)
        panels = int(re.search(r"after (\d+) panels", str(info.value)).group(1))
        assert panels < 50_000

    def test_failure_names_n(self, exp_pair_b1, monkeypatch):
        def spent(*args, **kwargs):
            raise QuadratureFailure("budget spent")

        monkeypatch.setattr(oracle, "integrate_adaptive", spent)
        with pytest.raises(QuadratureFailure, match=r"^n=74989: budget spent$"):
            ccdf_exact(exp_pair_b1, 74989)

    @pytest.mark.parametrize("integral", [0.0, -1e-30])
    def test_nonpositive_integral_names_its_spend(self, exp_pair_b1, monkeypatch,
                                                  integral):
        passes = []

        def nonpositive(*args, **kwargs):
            passes.append(args[1])
            return QuadResult(integral, 0.0, 3, 45)

        monkeypatch.setattr(oracle, "integrate_adaptive", nonpositive)
        with pytest.raises(QuadratureFailure, match=rf"^n=5: nonpositive integral {integral} "
                                                    r"after 3 panels and 45 evaluations$"):
            ccdf_exact(exp_pair_b1, 5)
        assert len(passes) == 1

    def test_non_monotone_curve_names_its_spend(self, exp_pair_b1, monkeypatch):
        def rising(m, n):
            return OracleResult(n, 0.0, 0.0, 10 * n, -100.0 + n, 150 * n)

        monkeypatch.setattr(oracle, "ccdf_exact", rising)
        with pytest.raises(QuadratureFailure, match=r"^oracle curve not monotone at n=2: "
                                                    r"log -98.0 after -99.0 "
                                                    r"\(20 panels, 300 evaluations\)$"):
            ccdf_exact_curve(exp_pair_b1, [1, 2, 3])
