"""Monte Carlo sampler and tally checks."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import ks_two_sample_ints, model_1a, model_1b, model_3, model_4
from retxdist import dists, mc
from retxdist.dists import (BoundedDoc, CoupledModel, Exponential, SlowVaryLogPower,
                            SlowVaryOne, Weibull, derive_doc_law)
from retxdist.errors import InvalidParameter
from retxdist.oracle import ccdf_exact


class _PointMassLaw:
    """Test double: document law concentrated at a single point."""

    family = "point_mass"

    def __init__(self, x0):
        self.x0 = x0

    def cdf(self, x):
        return 1.0 if x >= self.x0 else 0.0

    def ccdf(self, x):
        return 0.0 if x >= self.x0 else 1.0

    def quantile_ccdf(self, q):
        if isinstance(q, np.ndarray):
            return np.full_like(q, self.x0)
        return self.x0

    def params(self):
        return {"family": self.family, "x0": self.x0}


def _point_mass_model(x0, channel=Exponential(1.0)):
    return CoupledModel(channel, BoundedDoc(_PointMassLaw(x0), x0 + 1.0),
                        1.0, SlowVaryOne())


class TestRandomStream:
    def test_bit_identical_replay(self):
        a = mc.RandomStream(123, 4).uniforms(64)
        b = mc.RandomStream(123, 4).uniforms(64)
        assert np.array_equal(a, b)

    def test_streams_statistically_distinct(self):
        a = mc.RandomStream(123, 0).uniforms(1024)
        b = mc.RandomStream(123, 1).uniforms(1024)
        assert not np.array_equal(a, b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_uniform_range(self):
        u = mc.RandomStream(9).uniforms(100_000)
        assert np.all(u > 0.0) and np.all(u <= 1.0)


class TestSampleN:
    def test_degenerate_half_probability(self):
        # Gbar(x0) = 0.5: the count is geometric, P[N > n] = 2^-n; the 99%
        # Wilson interval must contain it wherever the expected count is
        # at least 50
        x0 = math.log(2.0)
        m = _point_mass_model(x0)
        samples = 1_000_000
        tally = mc.run_tally(m, list(range(0, 16)), samples, seed=31)
        for n, k in zip(tally.grid, tally.exceed_counts):
            want = 0.5 ** n
            if want * samples >= 50:
                lo, hi = mc.wilson_interval(k, samples, 0.99)
                assert lo <= want <= hi
            sigma = math.sqrt(want * (1 - want) / samples) if 0 < want < 1 else 0.0
            assert abs(k / samples - want) <= max(3 * sigma, 3 / samples)

    def test_immediate_success_when_document_tiny(self):
        m = _point_mass_model(1e-16)
        assert np.all(mc.sample_N_batch(m, mc.RandomStream(1), 100) == 1)

    def test_at_least_one_attempt(self, exp_pair_b1):
        assert np.all(mc.sample_N_batch(exp_pair_b1, mc.RandomStream(2), 1000) >= 1)

    def test_matches_oracle_smoke(self, exp_pair_b1):
        samples = 1_000_000
        counts = mc.sample_N_batch(exp_pair_b1, mc.RandomStream(77), samples)
        exact = ccdf_exact(exp_pair_b1, 10).value
        emp = float(np.mean(counts > 10))
        sigma = math.sqrt(exact * (1 - exact) / samples)
        assert abs(emp - exact) <= 3 * sigma


class TestNaiveSampler:
    def test_cap_contract(self, exp_pair_b1):
        rng = mc.RandomStream(3)
        draws = [mc.sample_N_naive(exp_pair_b1, rng, cap=1) for _ in range(200)]
        assert all(d.count == 1 for d in draws)
        assert any(d.capped for d in draws)

    def test_cap_validation(self, exp_pair_b1):
        with pytest.raises(InvalidParameter):
            mc.sample_N_naive(exp_pair_b1, mc.RandomStream(1), cap=0)

    def test_geometric_agreement(self):
        m = _point_mass_model(math.log(2.0))
        rng = mc.RandomStream(4)
        naive = np.array([mc.sample_N_naive(m, rng, 10_000).count
                          for _ in range(20_000)])
        geo = mc.sample_N_batch(m, mc.RandomStream(5), 20_000)
        d = ks_two_sample_ints(naive, geo)
        assert d < 1.95 * math.sqrt(2.0 / 20_000)

    def test_equivalence_on_coupled_model(self, exp_pair_b1):
        rng = mc.RandomStream(6)
        naive = np.array([mc.sample_N_naive(exp_pair_b1, rng, 10_000).count
                          for _ in range(10_000)])
        geo = mc.sample_N_batch(exp_pair_b1, mc.RandomStream(7), 10_000)
        d = ks_two_sample_ints(naive, geo)
        assert d < 1.95 * math.sqrt(2.0 / 10_000)


def _unfused_counts(p, u_geo):
    """The count formula as a chain of whole-array temporaries."""
    p = np.minimum(p, 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        raw = np.ceil(np.log(u_geo) / np.log1p(-p))
    n = np.where(p >= mc._SURE_SUCCESS, 1.0, raw)
    n = np.where(np.isfinite(n), n, float(mc._N_CAP))
    return np.clip(n, 1.0, float(mc._N_CAP)).astype(np.int64)


class TestGeometricCounts:
    def test_matches_unfused_formula(self):
        rng = np.random.default_rng(12)
        sure = mc._SURE_SUCCESS
        ps = np.concatenate([
            [0.0, -0.0, 5e-324, 1e-300, 1e-19, 1e-16, 0.5, np.nextafter(sure, 0.0),
             sure, 1.0 - 1e-16, 1.0, np.nextafter(1.0, 2.0), np.nan],
            rng.random(300), 10.0 ** rng.uniform(-25.0, 0.0, 300)])
        us = np.concatenate([[1.0, np.nextafter(1.0, 0.0), 0.5, 2.0 ** -53],
                             1.0 - rng.random(200)])
        p, u = (a.ravel() for a in np.meshgrid(ps, us))
        want = _unfused_counts(p.copy(), u.copy())
        got = mc._geometric_counts(p.copy(), u.copy())
        assert np.array_equal(got, want)
        # the crafted edges all occur: sure successes, u = 1, and the cap
        assert np.any(want == mc._N_CAP) and np.any((want == 1) & (u == 1.0))
        assert np.any((p >= sure) & (u < 0.5) & (want == 1))


class TestGammaDocuments:
    def test_tally_inside_binomial_band(self):
        # example4: every count lies in the exact binomial band of the oracle
        binom = pytest.importorskip("scipy.stats").binom
        samples = 200_000
        grid = [1, 2, 3, 5, 10, 20, 50, 100, 200, 500, 1000]
        for bound in (2.0, 3.0, 4.0):
            m = model_4(bound)
            tally = mc.run_tally(m, grid, samples, seed=20260805)
            for n, k in zip(grid, tally.exceed_counts):
                p = ccdf_exact(m, n).value
                lo, hi = binom.ppf(1e-9, samples, p), binom.isf(1e-9, samples, p)
                assert lo <= k <= hi, (bound, n, k, lo, hi)

    def test_uncertified_table_draws_exactly(self, monkeypatch):
        monkeypatch.setattr(dists, "_GAMMA_TABLE_MAX_PANELS", dists._GAMMA_TABLE_PANELS)
        m = model_4(3.0)
        got = mc.sample_N_batch(m, mc.RandomStream(14), 5_000)
        want = mc._batch_counts(m, m.doc.quantile_from_uniform,
                                mc.RandomStream(14).generator, 5_000)
        assert np.array_equal(got, want)

    def test_table_counts_match_exact_counts(self):
        # same uniforms, quantiles 1e-12 apart: counts differ only where a
        # draw sits on a geometric boundary
        m = model_4(3.0)
        table = mc._batch_counts(m, dists.sampling_quantile(m.doc),
                                 mc.RandomStream(15).generator, 100_000)
        exact = mc._batch_counts(m, m.doc.quantile_from_uniform,
                                 mc.RandomStream(15).generator, 100_000)
        assert np.count_nonzero(table != exact) <= 2


# One model per document family: exponential, Weibull, the certified gamma
# table, and a derived law with a log_power ell.
_FAMILY_MODELS = {
    "exponential": lambda: model_1a(1.0),
    "weibull": lambda: model_3(0.5, 2.0),
    "gamma_table": lambda: model_4(3.0),
    "derived_log_power": lambda: derive_doc_law(
        Weibull(0.5, 1.0), 1.5, SlowVaryLogPower(1.0, 1.0), 16.0),
}
_BLOCKS_QUOTA = 2 * mc._BLOCK + 7


class TestBlockCounts:
    @pytest.mark.parametrize("family", sorted(_FAMILY_MODELS))
    def test_draw_order_is_that_of_whole_blocks(self, family):
        # the reference draws consecutive _BLOCK-sample blocks, each all its
        # document uniforms and then all its geometric uniforms
        m = _FAMILY_MODELS[family]()
        gen = mc.RandomStream(41, 3).generator
        quantile = dists.sampling_quantile(m.doc)
        assert isinstance(quantile, dists._GammaQuantileTable) == (family == "gamma_table")
        want = np.concatenate([
            mc._batch_counts(m, quantile, gen, min(mc._BLOCK, _BLOCKS_QUOTA - done))
            for done in range(0, _BLOCKS_QUOTA, mc._BLOCK)])
        got = mc.sample_N_batch(m, mc.RandomStream(41, 3), _BLOCKS_QUOTA)
        assert np.array_equal(got, want)
        grid = [0, 1, 2, 3, 5, 10, 30, 100, 1000, 10**6]
        tally = mc._stream_tally(m, grid, _BLOCKS_QUOTA, 41, 3)
        assert tally.exceed_counts == tuple(int(np.count_nonzero(want > n))
                                            for n in grid)

    @pytest.mark.parametrize("family", ["exponential", "gamma_table"])
    def test_whole_blocks_are_a_prefix_of_longer_quotas(self, family):
        m = _FAMILY_MODELS[family]()
        short = mc.sample_N_batch(m, mc.RandomStream(43, 1), 2 * mc._BLOCK)
        long = mc.sample_N_batch(m, mc.RandomStream(43, 1), 5 * mc._BLOCK + 7)
        assert np.array_equal(short, long[:short.size])

    @pytest.mark.parametrize("family", sorted(_FAMILY_MODELS))
    def test_working_set_below_4_mib(self, family):
        # the grid's last point makes the binning table as large as it gets
        m = _FAMILY_MODELS[family]()
        tracemalloc.start()
        try:
            mc._stream_tally(m, [1, 2, 5, 10, mc._TABLE_MAX], (1 << 20) + 7, 41, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


_TOP = mc._TABLE_MAX
# One grid that runs past the binning table, one that ends inside it.
_BINNING_GRIDS = {
    "past_table": [0, 1, 2, 10, _TOP - 1, _TOP, _TOP + 1, 2**53 + 1,
                   2**62 - 1, 2**62, 2**63 - 1],
    "inside_table": [1, 2, 3, 10, 100, 1000, _TOP - 2],
}
# Counts pinned at _N_CAP (p = 0), geometric counts straddling the table's
# end (p = 2^-16), and a heavy-bodied exponential pair.
_BINNING_MODELS = {
    "zero_p": lambda: _point_mass_model(800.0),
    "table_end": lambda: _point_mass_model(16.0 * math.log(2.0)),
    "heavy_body": lambda: model_1b(4.0),
}


def _searchsorted_tally(counts, grid):
    return mc.Tally(tuple(grid), tuple(int(np.count_nonzero(counts > g)) for g in grid),
                    counts.size)


class TestTableBinning:
    @pytest.mark.parametrize("grid", sorted(_BINNING_GRIDS))
    @pytest.mark.parametrize("model", sorted(_BINNING_MODELS))
    def test_stream_tally_counts_exceedances(self, model, grid):
        m = _BINNING_MODELS[model]()
        counts = mc.sample_N_batch(m, mc.RandomStream(47, 2), _BLOCKS_QUOTA)
        if model == "zero_p":
            assert np.all(counts == mc._N_CAP)
        got = mc._stream_tally(m, _BINNING_GRIDS[grid], _BLOCKS_QUOTA, 47, 2)
        assert got == _searchsorted_tally(counts, _BINNING_GRIDS[grid])

    @pytest.mark.parametrize("grid", [*_BINNING_GRIDS.values(), [-3], [-3, 0, 5],
                                      [_TOP - 1], [_TOP]])
    def test_every_count_near_the_table_end(self, grid, monkeypatch):
        # each count from 1 to past the table's end, and the largest ones,
        # spread over two blocks
        counts = np.concatenate([np.arange(1, _TOP + 4),
                                 [2**53, 2**53 + 1, 2**53 + 2, 2**62 - 1, 2**62,
                                  2**63 - 1]]).astype(np.int64)
        monkeypatch.setattr(mc, "_count_blocks",
                            lambda m, gen, size: iter(np.array_split(counts, 2)))
        got = mc._stream_tally(_point_mass_model(1.0), grid, counts.size, 1, 0)
        assert got == _searchsorted_tally(counts, grid)

    def test_empty_grid(self, exp_pair_b1):
        assert mc._stream_tally(exp_pair_b1, [], 100, 1, 0) == mc.Tally((), (), 100)


class TestRunTally:
    def test_every_sample_exceeds_zero(self, exp_pair_b1):
        t = mc.run_tally(exp_pair_b1, [0], 1000, seed=1)
        assert t.exceed_counts == (1000,)
        assert t.total == 1000

    def test_bit_identical_for_fixed_seed_and_workers(self, exp_pair_b1):
        grid = [1, 2, 5, 10]
        a = mc.run_tally(exp_pair_b1, grid, 50_000, seed=88, workers=3)
        b = mc.run_tally(exp_pair_b1, grid, 50_000, seed=88, workers=3)
        assert a == b

    def test_worker_partition_is_stream_union(self, exp_pair_b1):
        grid = [1, 2, 5, 10]
        whole = mc.run_tally(exp_pair_b1, grid, 30_000, seed=88, workers=3)
        parts = [mc._stream_tally(exp_pair_b1, grid, 10_000, 88, wid)
                 for wid in range(3)]
        merged = parts[0].merge(parts[1]).merge(parts[2])
        assert merged == whole

    def test_process_pool_path(self, exp_pair_b1, monkeypatch):
        # single-CPU boxes never take the pool branch on their own; force it
        # so model pickling and cross-process determinism stay covered
        import os
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        grid = [1, 2, 5]
        pooled = mc.run_tally(exp_pair_b1, grid, 20_000, seed=3, workers=2)
        parts = [mc._stream_tally(exp_pair_b1, grid, 10_000, 3, wid)
                 for wid in range(2)]
        assert pooled == parts[0].merge(parts[1])

    def test_worker_counts_statistically_identical(self, exp_pair_b1):
        n = 100_000
        a = mc.sample_N_batch(exp_pair_b1, mc.RandomStream(10, 0), n)
        b = np.concatenate([
            mc.sample_N_batch(exp_pair_b1, mc.RandomStream(10, wid), n // 8)
            for wid in range(8)])
        d = ks_two_sample_ints(a, b)
        assert d < 1.95 * math.sqrt(2.0 / n)

    def test_oracle_inside_intervals(self, exp_pair_b1):
        samples = 100_000
        grid = list(range(1, 12))
        t = mc.run_tally(exp_pair_b1, grid, samples, seed=404)
        _, ci_lo, ci_hi = mc.empirical_ccdf(t, confidence=0.999)
        for n, lo, hi in zip(grid, ci_lo, ci_hi):
            exact = ccdf_exact(exp_pair_b1, n).value
            if exact * samples >= 100:
                assert lo <= exact <= hi

    def test_validation(self, exp_pair_b1):
        with pytest.raises(InvalidParameter):
            mc.run_tally(exp_pair_b1, [1], 0, seed=1)
        for size in (0, -3):
            with pytest.raises(InvalidParameter):
                mc.sample_N_batch(exp_pair_b1, mc.RandomStream(1), size)
        with pytest.raises(InvalidParameter):
            mc.run_tally(exp_pair_b1, [1], 10, seed=1, workers=0)


class TestTallyAndCurve:
    def test_merge_validation(self):
        a = mc.Tally((1, 2), (5, 3), 10)
        b = mc.Tally((1, 3), (5, 3), 10)
        with pytest.raises(InvalidParameter):
            a.merge(b)

    def test_tally_invariants(self):
        with pytest.raises(InvalidParameter):
            mc.Tally((1, 2), (3, 5), 10)      # increasing counts
        with pytest.raises(InvalidParameter):
            mc.Tally((2, 1), (5, 3), 10)      # decreasing grid
        with pytest.raises(InvalidParameter):
            mc.Tally((1,), (11,), 10)         # count above total

    def test_wilson_known_value(self):
        lo, hi = mc.wilson_interval(500, 1000, 0.95)
        assert lo == pytest.approx(0.4690, abs=5e-4)
        assert hi == pytest.approx(0.5309, abs=5e-4)

    def test_wilson_edges(self):
        lo, hi = mc.wilson_interval(0, 1000, 0.95)
        assert lo == 0.0
        lo, hi = mc.wilson_interval(1000, 1000, 0.95)
        assert hi == 1.0

    def test_empirical_curve_shape(self):
        t = mc.Tally((1, 2, 5), (600, 300, 0), 1000)
        value, ci_lo, ci_hi = mc.empirical_ccdf(t, 0.95)
        assert value.tolist() == [0.6, 0.3, 0.0]
        assert np.all((ci_lo <= value) & (value <= ci_hi))
        assert ci_lo[2] == 0.0
