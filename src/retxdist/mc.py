"""Monte Carlo simulation of the retransmission count.

A transmission attempt succeeds when the availability period exceeds the
(bounded) document size, so conditionally on the document the attempt
count is geometric with success probability Gbar(L_b). The default
sampler exploits that: draw the document once, then draw the geometric
count directly. This is exact, not an approximation, and it removes the
O(E[N]) per-sample cost of the literal retry loop, which matters in the
power-law regime where E[N] can be enormous. The literal loop is kept as
sample_N_naive purely so the two can be tested against each other.

A run draws one PCG64DXSM stream, seeded by the seed alone, in blocks of
_BLOCK samples: all of a block's document uniforms, then all of its
geometric uniforms, whose logs are taken once. A block is
self-contained, so the first k whole blocks of a stream are the same
whatever its length, and the working set is a few block-sized
temporaries that stay in cache. Every double takes one 64-bit output of
the generator, so a whole block takes 2^15 outputs and block k starts at
advance(k * 2^15).

run_tallies tallies every case of a run in one pass over the stream:
each block is drawn once, and every case maps the same uniforms through
its own document quantile and channel survival function, counts, and
bins the counts into its own tally at once. So the cases share their
draws (common random numbers); run_tally is the pass over a single case.
Each case's tally equals the one a pass of its own would give, with one
caveat. The bounded documents of one gamma law, or of one derived law
with ell != 1, share one certified quantile table, built once per pass
(once in each of its processes) for all their bounds and kept by nothing
between passes. A case's draws through it and through a lone pass's
table agree to the tables' 1e-12, so the two tallies can differ only
where a draw lies that close to a count boundary.
The pass splits into spans of whole blocks, each run in a process of one
pool and advanced to its first block, so its output depends on the seed
alone, not on how many processes drew it. A tally bins a block's counts
through a table of grid positions built once per span, which equals
searchsorted binning bit for bit, and adds one bincount per block.

A run ends in a Tally of exceedance counts over a grid; empirical_ccdf
turns it into the three Monte Carlo columns of a case table.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .dists import CoupledModel, sampling_quantiles
from .errors import InvalidParameter, RetxError

# Samples per draw block: a block's temporaries stay in cache.
_BLOCK = 1 << 14
# Generator outputs per block: a block draws 2 * _BLOCK = 2^15 doubles, one
# 64-bit output each, and PCG64DXSM.advance(k) skips k outputs.
_BLOCK_STEPS = 2 * _BLOCK
_N_CAP = 1 << 62
# A tally's binning table covers counts up to the grid's end, at most this.
_TABLE_MAX = 1 << 16
_SURE_SUCCESS = 1.0 - 1e-15


class RandomStream:
    """Single-owner random stream: PCG64DXSM seeded by the seed mod 2^64.

    Each double drawn takes one 64-bit output, so advance(k) on its bit
    generator skips exactly k doubles.
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = None

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(np.random.PCG64DXSM(self.seed % 2**64))
        return self._gen

    def uniform(self) -> float:
        """One uniform draw in (0, 1]."""
        return 1.0 - self.generator.random()

    def uniforms(self, size: int) -> np.ndarray:
        return 1.0 - self.generator.random(size)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed})"


@dataclass(frozen=True)
class Tally:
    """Exceedance counts over a grid; merging is a plain fold."""

    grid: tuple[int, ...]
    exceed_counts: tuple[int, ...]
    total: int

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise InvalidParameter("tally grid must be strictly increasing")
        if any(b > a for a, b in zip(self.exceed_counts, self.exceed_counts[1:])):
            raise InvalidParameter("exceedance counts must be nonincreasing")
        if any(c > self.total for c in self.exceed_counts):
            raise InvalidParameter("exceedance count exceeds the sample total")

    def merge(self, other: "Tally") -> "Tally":
        if self.grid != other.grid:
            raise InvalidParameter("cannot merge tallies over different grids")
        return Tally(self.grid,
                     tuple(a + b for a, b in zip(self.exceed_counts,
                                                 other.exceed_counts)),
                     self.total + other.total)


class NaiveDraw(NamedTuple):
    count: int
    capped: bool


def sample_N_naive(m: CoupledModel, rng: RandomStream, cap: int) -> NaiveDraw:
    """Literal retry loop: draw availability periods until one clears L_b.

    Draws one uniform for the document, then one per attempt, each pushed
    through the survival quantile of its law. Returns min(count, cap) with
    a flag saying whether the cap was hit. Distributionally identical to
    sample_N_batch; kept for equivalence testing.
    """
    if cap < 1:
        raise InvalidParameter(f"cap must be >= 1, got {cap}")
    x = m.doc.quantile_from_uniform(rng.uniform())
    for i in range(1, cap + 1):
        if m.channel.quantile_ccdf(rng.uniform()) > x:
            return NaiveDraw(i, False)
    return NaiveDraw(cap, True)


def _geometric_counts(p: np.ndarray, log_u: np.ndarray) -> np.ndarray:
    """ceil(log_u / log(1 - p)) as int64, in place over p; log_u, the logs
    of the geometric uniforms, is only read.

    1 where p >= _SURE_SUCCESS; a ratio that is not finite (p = 0, or an
    overflow for p near 5e-324) counts as _N_CAP; everything else is
    clipped to [1, _N_CAP].
    """
    sure = p >= _SURE_SUCCESS
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.negative(p, out=p)
        np.log1p(p, out=p)
        n = np.divide(log_u, p, out=p)
    cap = float(_N_CAP)
    np.ceil(n, out=n)
    np.fmin(n, cap, out=n)          # NaN and +inf become cap too
    n[n == -np.inf] = cap           # and so does -inf, as from p = -0.0
    np.maximum(n, 1.0, out=n)
    n[sure] = 1.0
    return n.astype(np.int64)


def _uniforms(gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill out with the next len(out) uniforms of gen, mapped to (0, 1]."""
    gen.random(out=out)
    return np.subtract(1.0, out, out=out)


def _draw_block(gen: np.random.Generator, u: np.ndarray,
                log_u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One block, in place: the document uniforms into u, then the
    geometric uniforms into log_u, and their logs over them."""
    _uniforms(gen, u)
    np.log(_uniforms(gen, log_u), out=log_u)
    return u, log_u


def _block_counts(m: CoupledModel, quantile: Callable[[np.ndarray], np.ndarray],
                  u: np.ndarray, log_u: np.ndarray) -> np.ndarray:
    """m's retransmission counts for one drawn block.

    quantile maps the document uniforms u to sizes. Neither it nor this
    writes into u or log_u, which every case of a pass reads.
    """
    p = np.asarray(m.channel.ccdf(quantile(u)), dtype=float)
    return _geometric_counts(p, log_u)


def _count_blocks(models: Sequence[CoupledModel], gen: np.random.Generator,
                  size: int) -> Iterator[tuple[int, np.ndarray]]:
    """(i, counts of models[i]) for each _BLOCK-sample block of size
    samples, the models in order within a block.

    The one block loop: each block is drawn once, and every model's
    documents come from its doc's map in one sampling_quantiles call, which
    builds one certified table per distinct gamma or derived base law of
    the pass. A RetxError raised for a model carries its index as
    case_index.
    """
    i = 0
    try:
        quantiles = sampling_quantiles([m.doc for m in models])
        u_buf, log_buf = np.empty(min(size, _BLOCK)), np.empty(min(size, _BLOCK))
        for done in range(0, size, _BLOCK):
            k = min(_BLOCK, size - done)
            u, log_u = _draw_block(gen, u_buf[:k], log_buf[:k])
            for i, (m, quantile) in enumerate(zip(models, quantiles)):
                yield i, _block_counts(m, quantile, u, log_u)
    except RetxError as exc:
        exc.case_index = i
        raise


def sample_N_batch(m: CoupledModel, rng: RandomStream, size: int) -> np.ndarray:
    """Vectorized retransmission counts via the conditional-geometric identity.

    Draws the stream in _BLOCK-sample blocks, each all its document draws
    and then all its geometric draws, so it is fully deterministic for a
    given stream. A quota of k whole blocks is a prefix
    of any longer quota on the same stream. Documents are drawn through
    sampling_quantiles.
    """
    if size < 1:
        raise InvalidParameter(f"size must be >= 1, got {size}")
    return np.concatenate([n for _, n in _count_blocks([m], rng.generator, size)])


class _Bins:
    """One grid's bin counts, added block by block.

    Counts are binned through lut[k] = searchsorted(grid, k) for k = 0..top,
    built once as int32; top is the grid's end plus one, capped at _TABLE_MAX.
    Counts >= top are looked up at top, which is exact unless the grid runs
    past the table: there the counts above top go through searchsorted. So
    each bin equals searchsorted(grid, n, side="left") bit for bit.
    """

    __slots__ = ("grid", "top", "far", "lut", "bins")

    def __init__(self, grid: Sequence[int]):
        self.grid = np.asarray(list(grid), dtype=np.int64)
        end = int(self.grid[-1]) + 1 if self.grid.size else 0
        self.top = min(max(end, 0), _TABLE_MAX)
        self.far = end > self.top
        self.lut = np.searchsorted(self.grid, np.arange(self.top + 1)).astype(np.int32)
        self.bins = np.zeros(len(self.grid) + 1, dtype=np.int64)

    def add(self, n: np.ndarray) -> None:
        # counts are >= 1, so clip mode only clamps them to top
        idx = self.lut.take(n, mode="clip")
        if self.far:
            far = n > self.top
            idx[far] = np.searchsorted(self.grid, n[far], side="left")
        self.bins += np.bincount(idx, minlength=len(self.bins))

    def tally(self, total: int) -> Tally:
        # exceed[i] counts samples with n > grid[i]: all bin indices > i.
        exceed = np.cumsum(self.bins[::-1])[::-1][1:]
        return Tally(tuple(int(g) for g in self.grid),
                     tuple(int(c) for c in exceed), total)


def _stream_tallies(cases: Sequence[tuple[CoupledModel, Sequence[int]]],
                    quota: int, seed: int, first_block: int) -> list[Tally]:
    """Per case, the tally of quota samples of the seed's stream from block
    first_block on, block by block, so memory stays bounded."""
    bins = [_Bins(grid) for _, grid in cases]
    gen = RandomStream(seed).generator
    gen.bit_generator.advance(first_block * _BLOCK_STEPS)
    for i, n in _count_blocks([m for m, _ in cases], gen, quota):
        bins[i].add(n)
        # Free the counts before the next case's are made: one more live
        # block-sized array makes malloc trim and regrow the heap per block.
        del n
    return [b.tally(quota) for b in bins]


def run_tallies(cases: Sequence[tuple[CoupledModel, Sequence[int]]], samples: int,
                seed: int, workers: int = 1) -> list[Tally]:
    """Per (model, grid) case, the exceedance tally over the grid of samples
    draws from the seed's stream, all cases in one pass over it.

    Every case reads the same draws, and its tally equals run_tally's
    (for tabulated documents, up to the shared table's caveat in the module
    docstring). workers is a process count only: the result depends on
    the seed alone. The stream's blocks split into at most min(workers,
    CPUs) spans of whole blocks, the last taking the partial block; each
    span runs every case in a process of one pool from its first block, and
    the spans' tallies add exactly. A RetxError raised by a case's model
    carries its position in cases as case_index.
    """
    if samples < 1:
        raise InvalidParameter(f"samples must be >= 1, got {samples}")
    if workers < 1:
        raise InvalidParameter(f"workers must be >= 1, got {workers}")
    blocks = -(-samples // _BLOCK)
    runs = min(workers, blocks, os.cpu_count() or 1)
    if runs == 1:
        return _stream_tallies(cases, samples, seed, 0)

    starts = [blocks * k // runs for k in range(runs + 1)]
    quotas = [min(stop * _BLOCK, samples) - start * _BLOCK
              for start, stop in zip(starts, starts[1:])]
    # imported here: the pool machinery costs every run memory, and only
    # this branch needs it
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=runs) as pool:
        futures = [pool.submit(_stream_tallies, cases, quota, seed, start)
                   for quota, start in zip(quotas, starts)]
        spans = [f.result() for f in futures]
    return [functools.reduce(Tally.merge, case) for case in zip(*spans)]


def run_tally(m: CoupledModel, grid: Sequence[int], samples: int,
              seed: int, workers: int = 1) -> Tally:
    """Exceedance tally over the grid of samples draws from the seed's
    stream: run_tallies over the one case (m, grid)."""
    return run_tallies([(m, grid)], samples, seed, workers)[0]


def _wilson_z(confidence: float) -> float:
    """The two-sided standard normal quantile z for confidence.

    Read from the lower tail, z = -Phi^-1((1 - confidence) / 2): that level
    is exact for confidence >= 1/2, and z stays finite up to the largest
    double below 1, where 1/2 + confidence/2 rounds to 1.
    """
    # imported here: only intervals need statistics, whose import takes about 6 ms
    from statistics import NormalDist
    return -NormalDist().inv_cdf((1.0 - confidence) / 2.0)


def _wilson_bounds(successes: np.ndarray, total: int, confidence: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Wilson score bounds (lo, hi) for each count of successes out of total."""
    if not 0.0 < confidence < 1.0:
        raise InvalidParameter(f"confidence must be in (0, 1), got {confidence}")
    if total <= 0:
        raise InvalidParameter("total must be positive")
    if not np.all((successes >= 0) & (successes <= total)):
        raise InvalidParameter(f"success counts must lie in [0, {total}]")
    z = _wilson_z(confidence)
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2.0 * total)) / denom
    half = z * np.sqrt(phat * (1.0 - phat) / total
                       + z * z / (4.0 * total * total)) / denom
    lo, hi = center - half, center + half
    # 0 at no successes and 1 at all of them; else clipped to [0, 1]
    lo = np.where((successes > 0) & (lo > 0.0), lo, 0.0)
    hi = np.where((successes < total) & (hi < 1.0), hi, 1.0)
    return lo, hi


def wilson_interval(successes: int, total: int, confidence: float) -> tuple[float, float]:
    """Wilson score interval; keeps sane coverage at deep-tail counts.

    The one-count case of empirical_ccdf's intervals.
    """
    lo, hi = _wilson_bounds(np.array([successes], dtype=float), total, confidence)
    return float(lo[0]), float(hi[0])


def empirical_ccdf(t: Tally, confidence: float = 0.95
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exceedance frequencies over t.grid with Wilson intervals.

    Returns three float arrays: value, ci_lo and ci_hi.
    """
    counts = np.asarray(t.exceed_counts, dtype=float)
    lo, hi = _wilson_bounds(counts, t.total, confidence)
    return counts / t.total, lo, hi
