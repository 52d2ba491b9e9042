"""Monte Carlo sampler and tally checks."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import ks_two_sample_ints, model_1a, model_1b, model_3, model_4
from retxdist import dists, mc
from retxdist.dists import (BoundedDoc, CoupledModel, Exponential, SlowVaryLogPower,
                            SlowVaryOne, Weibull, derive_doc_law)
from retxdist.errors import InvalidParameter, NonConvergence
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

    def quantile_log_ccdf(self, log_q):
        if isinstance(log_q, np.ndarray):
            return np.full_like(log_q, self.x0)
        return self.x0

    def params(self):
        return {"family": self.family, "x0": self.x0}


def _point_mass_model(x0, channel=Exponential(1.0)):
    return CoupledModel(channel, BoundedDoc(_PointMassLaw(x0), x0 + 1.0),
                        1.0, SlowVaryOne())


def _batch_counts(m, quantile, gen, size):
    """One size-sample block of m's counts drawn from gen, as a pass draws it."""
    return mc._block_counts(m, quantile,
                            *mc._draw_block(gen, np.empty(size), np.empty(size)))


def _stream_tally(m, grid, quota, seed, first_block):
    """The one-case pass of a span."""
    return mc._stream_tallies([(m, grid)], quota, seed, first_block)[0]


class TestRandomStream:
    def test_bit_identical_replay(self):
        a = mc.RandomStream(123).uniforms(64)
        b = mc.RandomStream(123).uniforms(64)
        assert np.array_equal(a, b)

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
        log_u = np.log(u)
        got = mc._geometric_counts(p.copy(), log_u)
        assert np.array_equal(got, want)
        # every case of a pass reads the same logs: they are never written
        assert np.array_equal(log_u, np.log(u))
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
        monkeypatch.setattr(dists, "_TABLE_MAX_PANELS", dists._TABLE_PANELS)
        m = model_4(3.0)
        got = mc.sample_N_batch(m, mc.RandomStream(14), 5_000)
        want = _batch_counts(m, m.doc.quantile_from_uniform,
                             mc.RandomStream(14).generator, 5_000)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_table_per_law_per_pass(self, workers, monkeypatch):
        # example4's three bounds share one certified lower part and one
        # upper part, and each case's tally is still that of a lone pass
        import os
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        certified_part, parts = dists._certified_part, []

        def counted(*args):
            parts.append(args[2:])
            return certified_part(*args)

        monkeypatch.setattr(dists, "_certified_part", counted)
        grid = [1, 2, 3, 5, 10, 30, 100, 1000]
        cases = [(model_4(b), grid) for b in (2.0, 3.0, 4.0)]
        samples = 3 * mc._BLOCK + 11
        mc._stream_tallies(cases, 1, 17, 0)
        assert len(parts) == 2
        assert parts[0][0] == 0.0 and parts[1][0] == math.log(2.0)
        assert parts[1][1] == -math.log(cases[-1][0].doc.ccdf_at_bound)
        got = mc.run_tallies(cases, samples, seed=17, workers=workers)
        assert got == [mc.run_tally(m, grid, samples, seed=17) for m, grid in cases]

    def test_table_counts_match_exact_counts(self):
        # same uniforms, quantiles 1e-12 apart: counts differ only where a
        # draw sits on a geometric boundary
        m = model_4(3.0)
        table = _batch_counts(m, dists.sampling_quantiles([m.doc])[0],
                              mc.RandomStream(15).generator, 100_000)
        exact = _batch_counts(m, m.doc.quantile_from_uniform,
                              mc.RandomStream(15).generator, 100_000)
        assert np.count_nonzero(table != exact) <= 2



class TestDerivedDocuments:
    def test_table_counts_match_exact_counts(self):
        # the derived-weibull law at bound 16, through its certified table
        m = derive_doc_law(Weibull(0.5, 1.0), 1.5, SlowVaryLogPower(1.0, 1.0), 16.0)
        table = _batch_counts(m, dists.sampling_quantiles([m.doc])[0],
                              mc.RandomStream(16).generator, 100_000)
        exact = _batch_counts(m, m.doc.quantile_from_uniform,
                              mc.RandomStream(16).generator, 100_000)
        assert np.count_nonzero(table != exact) <= 2


# One model per document family: exponential, Weibull, and the two kinds of
# certified table, gamma and a derived law with a log_power ell.
_FAMILY_MODELS = {
    "exponential": lambda: model_1a(1.0),
    "weibull": lambda: model_3(0.5, 2.0),
    "gamma_table": lambda: model_4(3.0),
    "derived_log_power": lambda: derive_doc_law(
        Weibull(0.5, 1.0), 1.5, SlowVaryLogPower(1.0, 1.0), 16.0),
}
_TABLE_FAMILIES = ("gamma_table", "derived_log_power")
_BLOCKS_QUOTA = 2 * mc._BLOCK + 7


class TestBlockCounts:
    @pytest.mark.parametrize("family", sorted(_FAMILY_MODELS))
    def test_draw_order_is_that_of_whole_blocks(self, family):
        # the reference draws consecutive _BLOCK-sample blocks, each all its
        # document uniforms and then all its geometric uniforms
        m = _FAMILY_MODELS[family]()
        gen = mc.RandomStream(41).generator
        quantile = dists.sampling_quantiles([m.doc])[0]
        assert isinstance(quantile, dists._QuantileTable) == (family in _TABLE_FAMILIES)
        want = np.concatenate([
            _batch_counts(m, quantile, gen, min(mc._BLOCK, _BLOCKS_QUOTA - done))
            for done in range(0, _BLOCKS_QUOTA, mc._BLOCK)])
        got = mc.sample_N_batch(m, mc.RandomStream(41), _BLOCKS_QUOTA)
        assert np.array_equal(got, want)
        grid = [0, 1, 2, 3, 5, 10, 30, 100, 1000, 10**6]
        tally = _stream_tally(m, grid, _BLOCKS_QUOTA, 41, 0)
        assert tally.exceed_counts == tuple(int(np.count_nonzero(want > n))
                                            for n in grid)

    @pytest.mark.parametrize("family", ["exponential", "gamma_table"])
    def test_whole_blocks_are_a_prefix_of_longer_quotas(self, family):
        m = _FAMILY_MODELS[family]()
        short = mc.sample_N_batch(m, mc.RandomStream(43), 2 * mc._BLOCK)
        long = mc.sample_N_batch(m, mc.RandomStream(43), 5 * mc._BLOCK + 7)
        assert np.array_equal(short, long[:short.size])
        # and advancing _BLOCK_STEPS generator outputs per block lands on a block
        gen = mc.RandomStream(43).generator
        gen.bit_generator.advance(3 * mc._BLOCK_STEPS)
        tail = np.concatenate([n for _, n in
                               mc._count_blocks([m], gen, 2 * mc._BLOCK + 7)])
        assert np.array_equal(tail, long[3 * mc._BLOCK:])

    @pytest.mark.parametrize("family", ["exponential", "gamma_table"])
    def test_block_steps_match_the_generator(self, family):
        # one whole block moves the bit generator exactly as far as
        # advance(_BLOCK_STEPS) does, so span starts land on block starts
        m = _FAMILY_MODELS[family]()
        gen = mc.RandomStream(45).generator
        assert type(gen.bit_generator) is np.random.PCG64DXSM
        _batch_counts(m, dists.sampling_quantiles([m.doc])[0], gen, mc._BLOCK)
        fresh = mc.RandomStream(45).generator
        fresh.bit_generator.advance(mc._BLOCK_STEPS)
        assert gen.bit_generator.state == fresh.bit_generator.state

    @pytest.mark.parametrize("family", sorted(_FAMILY_MODELS))
    def test_working_set_below_4_mib(self, family):
        # the grid's last point makes the binning table as large as it gets
        m = _FAMILY_MODELS[family]()
        tracemalloc.start()
        try:
            _stream_tally(m, [1, 2, 5, 10, mc._TABLE_MAX], (1 << 20) + 7, 41, 0)
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
        counts = mc.sample_N_batch(m, mc.RandomStream(47), _BLOCKS_QUOTA)
        if model == "zero_p":
            assert np.all(counts == mc._N_CAP)
        got = _stream_tally(m, _BINNING_GRIDS[grid], _BLOCKS_QUOTA, 47, 0)
        assert got == _searchsorted_tally(counts, _BINNING_GRIDS[grid])

    @pytest.mark.parametrize("grid", [*_BINNING_GRIDS.values(), [-3], [-3, 0, 5],
                                      [_TOP - 1], [_TOP]])
    def test_every_count_near_the_table_end(self, grid, monkeypatch):
        # each count from 1 to past the table's end, and the largest ones,
        # spread over two blocks
        counts = np.concatenate([np.arange(1, _TOP + 4),
                                 [2**53, 2**53 + 1, 2**53 + 2, 2**62 - 1, 2**62,
                                  2**63 - 1]]).astype(np.int64)
        monkeypatch.setattr(mc, "_count_blocks", lambda models, gen, size: (
            (0, n) for n in np.array_split(counts, 2)))
        got = _stream_tally(_point_mass_model(1.0), grid, counts.size, 1, 0)
        assert got == _searchsorted_tally(counts, grid)

    def test_empty_grid(self, exp_pair_b1):
        assert _stream_tally(exp_pair_b1, [], 100, 1, 0) == mc.Tally((), (), 100)


class TestRunTally:
    def test_every_sample_exceeds_zero(self, exp_pair_b1):
        t = mc.run_tally(exp_pair_b1, [0], 1000, seed=1)
        assert t.exceed_counts == (1000,)
        assert t.total == 1000

    def test_worker_partition_is_stream_union(self, exp_pair_b1):
        # spans of whole blocks, each from its own first block, add up to
        # the stream drawn in one go
        grid = [1, 2, 5, 10]
        quota = 5 * mc._BLOCK + 123
        whole = _stream_tally(exp_pair_b1, grid, quota, 88, 0)
        head = _stream_tally(exp_pair_b1, grid, 2 * mc._BLOCK, 88, 0)
        tail = _stream_tally(exp_pair_b1, grid, quota - 2 * mc._BLOCK, 88, 2)
        assert head.merge(tail) == whole
        assert mc.run_tally(exp_pair_b1, grid, quota, seed=88) == whole

    @pytest.mark.parametrize("samples", [5 * mc._BLOCK + 123, 1000])
    @pytest.mark.parametrize("family", ["exponential", "gamma_table"])
    def test_process_pool_path(self, family, samples, monkeypatch):
        # single-CPU boxes never take the pool branch on their own; force it
        # so model pickling and the block split stay covered
        import os
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        m = _FAMILY_MODELS[family]()
        grid = [1, 2, 5, 10, 100]
        tallies = [mc.run_tally(m, grid, samples, seed=3, workers=w) for w in (1, 2, 3)]
        assert tallies[0] == tallies[1] == tallies[2]
        assert tallies[0].total == samples

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


# A mixed-family run: a grid running past the binning table, an empty grid,
# and three document families.
_JOINT_CASES = [
    (_FAMILY_MODELS["exponential"], [1, 2, 5, 10, 100]),
    (_BINNING_MODELS["table_end"], _BINNING_GRIDS["past_table"]),
    (_FAMILY_MODELS["gamma_table"], [1, 3, 10, 30, 1000]),
    (_FAMILY_MODELS["weibull"], []),
    (_FAMILY_MODELS["derived_log_power"], [1, 2, 5, 10, 100, mc._TABLE_MAX]),
]


class TestRunTallies:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_each_case_equals_a_lone_run_tally(self, workers, monkeypatch):
        # the cases share every block, and each one's tally is the one a
        # pass of its own gives, on every pool size
        import os
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        cases = [(make(), grid) for make, grid in _JOINT_CASES]
        samples = 5 * mc._BLOCK + 123
        got = mc.run_tallies(cases, samples, seed=9, workers=workers)
        assert got == [mc.run_tally(m, grid, samples, seed=9) for m, grid in cases]

    def test_generator_is_drawn_once_per_block(self):
        models = [make() for make in _FAMILY_MODELS.values()][:3]
        states = []
        for some in (models, models[:1]):
            gen = mc.RandomStream(51).generator
            for _ in mc._count_blocks(some, gen, 2 * mc._BLOCK + 7):
                pass
            states.append(gen.bit_generator.state)
        assert states[0] == states[1]

    @pytest.mark.parametrize("family, mib", [
        ("derived_log_power", 3.25), ("exponential", 2.0), ("gamma_table", 2.5),
        ("weibull", 2.0)])
    def test_three_case_working_set(self, family, mib):
        # three int32 binning tables as large as they get (256 KiB each), and
        # three quantiles, which for gamma share one table (2.23 MiB measured,
        # 2.50 with a table per case); with int64 tables each family peaks
        # 0.75 MiB higher
        m = _FAMILY_MODELS[family]()
        cases = [(m, [1, 2, 5, 10, mc._TABLE_MAX])] * 3
        # a first pass imports what a pass needs, outside the trace
        mc._stream_tallies(cases, 1, 41, 0)
        tracemalloc.start()
        try:
            mc._stream_tallies(cases, (1 << 20) + 7, 41, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * (1 << 20)

    def test_a_failure_carries_its_case_index(self, monkeypatch):
        # with no Newton steps allowed, only the derived second case fails
        stuck = _FAMILY_MODELS["derived_log_power"]()
        monkeypatch.setattr(type(stuck.doc.base), "QUANTILE_MAX_ITER", 0)
        cases = [(_FAMILY_MODELS["exponential"](), [1, 2]), (stuck, [1, 2])]
        with pytest.raises(NonConvergence) as info:
            mc.run_tallies(cases, 1000, seed=1)
        assert info.value.case_index == 1


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

    @pytest.mark.parametrize("successes", [-1, 1001])
    def test_wilson_rejects_counts_outside_the_total(self, successes):
        with pytest.raises(InvalidParameter):
            mc.wilson_interval(successes, 1000, 0.95)

    @pytest.mark.parametrize("confidence", [0.5 + 1e-9, 0.6827, 0.9, 0.95, 0.99, 0.999,
                                            1.0 - 1e-12])
    def test_normal_quantile_against_mpmath(self, confidence):
        _assert_normal_quantile(confidence)

    def test_normal_quantile_sweep(self):
        for confidence in np.random.default_rng(73).uniform(0.0, 1.0, 300):
            _assert_normal_quantile(float(confidence))
        # the lower tail keeps z finite where 1/2 + confidence/2 rounds to 1
        assert math.isfinite(mc._wilson_z(math.nextafter(1.0, 0.0)))

    def test_curve_is_the_interval_of_each_count(self):
        # the array path is the scalar interval's arithmetic, bit for bit
        total = 1_000_003
        counts = (total, total - 1, 987_654, 500_000, 31_337, 1_000, 17, 1, 0)
        t = mc.Tally(tuple(range(1, len(counts) + 1)), counts, total)
        for confidence in (0.6827, 0.95, 0.999):
            value, ci_lo, ci_hi = mc.empirical_ccdf(t, confidence)
            lo, hi = np.array([mc.wilson_interval(k, total, confidence) for k in counts]).T
            assert ci_lo.tobytes() == lo.tobytes() and ci_hi.tobytes() == hi.tobytes()
            z = mc._wilson_z(confidence)
            lo, hi = np.array([_scalar_wilson(k, total, z) for k in counts]).T
            assert ci_lo.tobytes() == lo.tobytes() and ci_hi.tobytes() == hi.tobytes()
            assert value.tolist() == [k / total for k in counts]

    def test_empirical_curve_shape(self):
        t = mc.Tally((1, 2, 5), (600, 300, 0), 1000)
        value, ci_lo, ci_hi = mc.empirical_ccdf(t, 0.95)
        assert value.tolist() == [0.6, 0.3, 0.0]
        assert np.all((ci_lo <= value) & (value <= ci_hi))
        assert ci_lo[2] == 0.0


def _assert_normal_quantile(confidence):
    """z for confidence within 4 eps of mpmath's sqrt(2) erfinv(2p - 1) at the
    level p = 1/2 + confidence/2 that it stands for, p taken from the double
    (1 - confidence) / 2 that the code reads, so the check is of z alone."""
    mpmath = pytest.importorskip("mpmath")
    tail = (1.0 - confidence) / 2.0
    with mpmath.workdps(40):
        want = float(mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf(tail)))
    got = mc._wilson_z(confidence)
    assert abs(got / want - 1.0) <= 4 * np.finfo(float).eps, (confidence, got, want)


def _scalar_wilson(successes, total, z):
    """The Wilson interval of one count in Python floats: the reference that
    empirical_ccdf's array arithmetic equals bit for bit."""
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2.0 * total)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / total
                         + z * z / (4.0 * total * total)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == total else min(1.0, center + half)
    return lo, hi
