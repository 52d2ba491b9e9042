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

A run ends in a Tally of exceedance counts over a grid; empirical_ccdf
turns it into the three Monte Carlo columns of a case table.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import ndtri

from .dists import CoupledModel
from .errors import InvalidParameter

_CHUNK = 1 << 19
_N_CAP = 1 << 62
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

    def substream(self, stream_id: int) -> "RandomStream":
        return RandomStream(self.seed, stream_id)

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


def sample_N(m: CoupledModel, rng: RandomStream) -> int:
    """One retransmission count via the conditional-geometric identity.

    A one-sample block of the batched sampler: it draws the document
    uniform, then the geometric uniform, even when the attempt is sure to
    succeed.
    """
    return int(_batch_counts(m, rng.generator, 1)[0])


def sample_N_naive(m: CoupledModel, rng: RandomStream, cap: int) -> NaiveDraw:
    """Literal retry loop: draw availability periods until one clears L_b.

    Draws one uniform for the document, then one per attempt, each pushed
    through the survival quantile of its law. Returns min(count, cap) with
    a flag saying whether the cap was hit. Distributionally identical to
    sample_N; kept for equivalence testing.
    """
    if cap < 1:
        raise InvalidParameter(f"cap must be >= 1, got {cap}")
    x = m.doc.quantile_from_uniform(rng.uniform())
    for i in range(1, cap + 1):
        if m.channel.quantile_ccdf(rng.uniform()) > x:
            return NaiveDraw(i, False)
    return NaiveDraw(cap, True)


def _batch_counts(m: CoupledModel, gen: np.random.Generator, size: int) -> np.ndarray:
    """One vectorized block of retransmission counts."""
    u_doc = 1.0 - gen.random(size)
    x = m.doc.quantile_from_uniform(u_doc)
    p = np.minimum(np.asarray(m.channel.ccdf(x), dtype=float), 1.0)
    u_geo = 1.0 - gen.random(size)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.ceil(np.log(u_geo) / np.log1p(-p))
    n = np.where(p >= _SURE_SUCCESS, 1.0, raw)
    n = np.where(np.isfinite(n), n, float(_N_CAP))
    return np.clip(n, 1.0, float(_N_CAP)).astype(np.int64)


def sample_N_batch(m: CoupledModel, rng: RandomStream, size: int) -> np.ndarray:
    """Vectorized retransmission counts, same law as sample_N.

    Uses a batched draw discipline (all document draws, then all geometric
    draws, per internal chunk), so it consumes the stream in a different
    order than repeated sample_N calls while remaining fully deterministic
    for a given stream.
    """
    gen = rng.generator
    parts = []
    done = 0
    while done < size:
        s = min(_CHUNK, size - done)
        parts.append(_batch_counts(m, gen, s))
        done += s
    return np.concatenate(parts) if len(parts) != 1 else parts[0]


def _stream_tally(m: CoupledModel, grid: Sequence[int], quota: int,
                  seed: int, stream_id: int) -> Tally:
    """Tally one worker stream; chunked so memory stays bounded."""
    grid_arr = np.asarray(list(grid), dtype=np.int64)
    exceed = np.zeros(len(grid_arr), dtype=np.int64)
    gen = RandomStream(seed, stream_id).generator
    done = 0
    while done < quota:
        s = min(_CHUNK, quota - done)
        n = _batch_counts(m, gen, s)
        idx = np.searchsorted(grid_arr, n, side="left")
        bc = np.bincount(idx, minlength=len(grid_arr) + 1)
        # exceed[i] counts samples with n > grid[i]: all bucket indices > i.
        suffix = np.cumsum(bc[::-1])[::-1]
        exceed += suffix[1:]
        done += s
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
