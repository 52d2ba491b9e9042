"""Monte Carlo sampler and tally checks."""

import math

import numpy as np
import pytest

from conftest import ks_two_sample_ints
from retxdist import mc
from retxdist.dists import BoundedDoc, CoupledModel, CouplingMode, Exponential, SlowVaryOne
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
                        1.0, SlowVaryOne(), CouplingMode.PARAMETRIC)


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

    def test_substream(self):
        s = mc.RandomStream(5).substream(7)
        assert (s.seed, s.stream_id) == (5, 7)


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
        rng = mc.RandomStream(1)
        assert all(mc.sample_N(m, rng) == 1 for _ in range(100))

    def test_at_least_one_attempt(self, exp_pair_b1):
        rng = mc.RandomStream(2)
        assert all(mc.sample_N(exp_pair_b1, rng) >= 1 for _ in range(1000))

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
