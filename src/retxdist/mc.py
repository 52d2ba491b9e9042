"""Monte Carlo simulation of the retransmission count.

A transmission attempt succeeds when the availability period exceeds the
(bounded) document size, so conditionally on the document the attempt
count is geometric with success probability Gbar(L_b). The default
sampler exploits that: draw the document once, then draw the geometric
count directly. This is exact, not an approximation, and it removes the
O(E[N]) per-sample cost of the literal retry loop, which matters in the
power-law regime where E[N] can be enormous. The literal loop is kept as
sample_N_naive purely so the two can be tested against each other.

Streams are Philox counter-based: (seed, stream_id) is the key, so
distinct stream ids give independent sequences and the same pair always
reproduces bit-identical output regardless of scheduling.

A stream is drawn in blocks of _BLOCK samples: all of a block's document
uniforms, then all of its geometric uniforms. A block is self-contained,
so the first k whole blocks of a stream are the same whatever its length,
and the working set is a few block-sized temporaries that stay in cache.
A tally bins a block's counts through a table of grid positions built
once per stream, which equals searchsorted binning bit for bit, and adds
one bincount per block.

A run ends in a Tally of exceedance counts over a grid; empirical_ccdf
turns it into the three Monte Carlo columns of a case table.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy.special import ndtri

from .dists import CoupledModel, sampling_quantile
from .errors import InvalidParameter

# Samples per draw block: a block's temporaries stay in cache.
_BLOCK = 1 << 14
_N_CAP = 1 << 62
# A tally's binning table covers counts up to the grid's end, at most this.
_TABLE_MAX = 1 << 16
_SURE_SUCCESS = 1.0 - 1e-15


class RandomStream:
    """Single-owner random substream keyed by (seed, stream_id)."""

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = None

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            key = np.array([self.seed % 2**64, self.stream_id % 2**64],
                           dtype=np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen

    def uniform(self) -> float:
        """One uniform draw in (0, 1]."""
        return 1.0 - self.generator.random()

    def uniforms(self, size: int) -> np.ndarray:
        return 1.0 - self.generator.random(size)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"


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


def _geometric_counts(p: np.ndarray, u_geo: np.ndarray) -> np.ndarray:
    """ceil(log u_geo / log(1 - p)) as int64, in place over both arrays.

    1 where p >= _SURE_SUCCESS; a ratio that is not finite (p = 0, or an
    overflow for p near 5e-324) counts as _N_CAP; everything else is
    clipped to [1, _N_CAP].
    """
    sure = p >= _SURE_SUCCESS
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.negative(p, out=p)
        np.log1p(p, out=p)
        n = np.log(u_geo, out=u_geo)
        np.divide(n, p, out=n)
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


def _batch_counts(m: CoupledModel, quantile: Callable[[np.ndarray], np.ndarray],
                  gen: np.random.Generator, size: int) -> np.ndarray:
    """One vectorized block of retransmission counts.

    quantile maps the block's document uniforms to sizes; the geometric
    uniforms are drawn after it, into the same buffer.
    """
    u = _uniforms(gen, np.empty(size))
    p = np.asarray(m.channel.ccdf(quantile(u)), dtype=float)
    return _geometric_counts(p, _uniforms(gen, u))


def _count_blocks(m: CoupledModel, gen: np.random.Generator,
                  size: int) -> Iterator[np.ndarray]:
    """size retransmission counts, yielded one _BLOCK-sample block at a time.

    Each block is one _batch_counts call, so it draws all its document
    uniforms and then all its geometric uniforms; every document is drawn
    through one sampling_quantile of m.doc.
    """
    quantile = sampling_quantile(m.doc)
    for done in range(0, size, _BLOCK):
        yield _batch_counts(m, quantile, gen, min(_BLOCK, size - done))


def sample_N_batch(m: CoupledModel, rng: RandomStream, size: int) -> np.ndarray:
    """Vectorized retransmission counts via the conditional-geometric identity.

    Draws the stream in _BLOCK-sample blocks, each all its document draws
    and then all its geometric draws, so it is fully deterministic for a
    given stream. A quota of k whole blocks is a prefix
    of any longer quota on the same stream. Documents are drawn through
    sampling_quantile.
    """
    if size < 1:
        raise InvalidParameter(f"size must be >= 1, got {size}")
    return np.concatenate(list(_count_blocks(m, rng.generator, size)))


def _stream_tally(m: CoupledModel, grid: Sequence[int], quota: int,
                  seed: int, stream_id: int) -> Tally:
    """Tally one worker stream, block by block, so memory stays bounded.

    Counts are binned through lut[k] = searchsorted(grid, k) for k = 0..top,
    built once per stream; top is the grid's end plus one, capped at
    _TABLE_MAX. Counts >= top are looked up at top, which is exact unless
    the grid runs past the table: there the counts above top go through
    searchsorted. So each bin equals searchsorted(grid, n, side="left") bit
    for bit.
    """
    grid_arr = np.asarray(list(grid), dtype=np.int64)
    end = int(grid_arr[-1]) + 1 if grid_arr.size else 0
    top = min(max(end, 0), _TABLE_MAX)
    lut = np.searchsorted(grid_arr, np.arange(top + 1), side="left")
    bins = np.zeros(len(grid_arr) + 1, dtype=np.int64)
    for n in _count_blocks(m, RandomStream(seed, stream_id).generator, quota):
        # counts are >= 1, so clip mode only clamps them to top
        idx = lut.take(n, mode="clip")
        if end > top:
            far = n > top
            idx[far] = np.searchsorted(grid_arr, n[far], side="left")
        bins += np.bincount(idx, minlength=len(bins))
        # Free the indices before the next block is drawn: one more live
        # block-sized array makes malloc trim and regrow the heap per block.
        del idx
    # exceed[i] counts samples with n > grid[i]: all bin indices > i.
    exceed = np.cumsum(bins[::-1])[::-1][1:]
    return Tally(tuple(int(g) for g in grid_arr),
                 tuple(int(c) for c in exceed), quota)


def run_tally(m: CoupledModel, grid: Sequence[int], samples: int,
              seed: int, workers: int = 1) -> Tally:
    """Exceedance tally over the grid, partitioned across worker streams.

    Sample quotas split as evenly as possible over stream ids
    0..workers-1, so the result is bit-identical for a fixed
    (seed, workers) pair no matter how the streams are scheduled. Streams
    run in parallel processes when more than one CPU is available.
    """
    if samples < 1:
        raise InvalidParameter(f"samples must be >= 1, got {samples}")
    if workers < 1:
        raise InvalidParameter(f"workers must be >= 1, got {workers}")
    base, extra = divmod(samples, workers)
    quotas = [(wid, base + (1 if wid < extra else 0)) for wid in range(workers)]
    quotas = [(wid, q) for wid, q in quotas if q > 0]

    if len(quotas) > 1 and (os.cpu_count() or 1) > 1:
        # imported here: the pool machinery costs every run memory, and only
        # this branch needs it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(len(quotas), os.cpu_count())) as pool:
            futures = [pool.submit(_stream_tally, m, grid, q, seed, wid)
                       for wid, q in quotas]
            parts = [f.result() for f in futures]
    else:
        parts = [_stream_tally(m, grid, q, seed, wid) for wid, q in quotas]

    tally = parts[0]
    for part in parts[1:]:
        tally = tally.merge(part)
    return tally


def wilson_interval(successes: int, total: int, confidence: float) -> tuple[float, float]:
    """Wilson score interval; keeps sane coverage at deep-tail counts."""
    if not 0.0 < confidence < 1.0:
        raise InvalidParameter(f"confidence must be in (0, 1), got {confidence}")
    if total <= 0:
        raise InvalidParameter("total must be positive")
    z = float(ndtri(0.5 + confidence / 2.0))
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2.0 * total)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / total
                         + z * z / (4.0 * total * total)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == total else min(1.0, center + half)
    return lo, hi


def empirical_ccdf(t: Tally, confidence: float = 0.95
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exceedance frequencies over t.grid with Wilson intervals.

    Returns three float arrays: value, ci_lo and ci_hi.
    """
    lo, hi = np.array([wilson_interval(k, t.total, confidence)
                       for k in t.exceed_counts], dtype=float).reshape(-1, 2).T
    return np.asarray(t.exceed_counts, dtype=float) / t.total, lo, hi
