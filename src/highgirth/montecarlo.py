"""Reproducible Monte Carlo driver.

Every trial draws from its own counter-based substream, keyed by (seed,
trial index).  Results are therefore byte-identical for a given seed,
and trial t can be replayed in isolation.

Every simulator runs its trials through one generator, ``_blocks``: it
checks the run, cuts ``range(trials)`` into consecutive blocks and
yields each block's draws, so a simulator keeps only its block body.
The draws have two sources, with the same words.  A draw function runs
on one ``SubStream`` moved along the trials (``next_trial``), at a
fixed 3 to 6 us a trial: it wins from a hundred or so words a
trial (a girth-scan or erasure trial) and serves draws that reject.  A
range of word indices is replayed in numpy (``_raw_words``,
Philox4x64-10 on arrays, one lane per trial and counter block), at
about 0.04 us a word in a 512-trial block: it wins at a few dozen words
(a crossing-channel trial), and computes only the blocks that hold the
range.  On a 2-core Xeon with Python 3.11 and numpy 2.4, a trial costs
1.0 against 3.2 us at 21 words in 512-trial blocks, 36 against 5.6 at
256 in 8-trial blocks (girth-scan-256's) and 92 against 11 at 1434 in
4-trial blocks (erasure-1024's), so each simulator keeps its source.
``run_trials`` is the one-block case of a moved stream.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

__all__ = [
    "RNG_ID",
    "SubStream",
    "threshold_u64",
    "wilson_interval",
    "TrialReport",
    "run_trials",
]

# stamped into result reports; a different id means draws are not comparable
RNG_ID = "philox4x64-v1"

_WORD = 1 << 64

# Philox4x64 round multipliers and Weyl key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def threshold_u64(p: Fraction) -> int:
    """Integer t such that a uniform 64-bit draw u satisfies u < t with
    probability exactly floor(p * 2**64) / 2**64."""
    if not 0 <= p <= 1:
        raise ValueError("probability out of range")
    return (p.numerator << 64) // p.denominator


def _below(u: np.ndarray, t: int) -> np.ndarray:
    """uint8 flags u < t of uniform words u, for a threshold t from
    ``threshold_u64``: all ones when t is 2**64 (p = 1)."""
    if t >= _WORD:
        return np.ones(u.shape, np.uint8)
    return (u < np.uint64(t)).astype(np.uint8)


def _check_seed(seed: int) -> None:
    if not 0 <= seed < _WORD:
        raise ValueError("seed must fit in 64 bits")


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the products a * m, a uint64 array.

    numpy has no 128-bit product, so the high half is summed from the
    32-bit limb products (Hacker's Delight ``mulhu``): with a = a1 2^32 + a0
    and m = m1 2^32 + m0, mid = a1 m0 + (a0 m0 >> 32) and the high half is
    a1 m1 + (mid >> 32) + ((a0 m1 + (mid & 0xFFFFFFFF)) >> 32).  Each inner
    sum is at most (2^32 - 1)^2 + 2^32 - 1 = 2^64 - 2^32, so none wraps.
    """
    a0, a1 = a & _LOW32, a >> _SHIFT32
    m0, m1 = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    mid = a1 * m0 + (a0 * m0 >> _SHIFT32)
    hi = a1 * m1 + (mid >> _SHIFT32) + ((a0 * m1 + (mid & _LOW32)) >> _SHIFT32)
    return hi, a * np.uint64(m)


def _raw_words(seed: int, start: int, stop: int, words) -> np.ndarray:
    """(stop - start, len(words)) uint64 words; row i holds the words at
    the indices ``words`` (a range of step 1 from a nonnegative start, or
    an int w for range(w)) of trial start + i, so with an int w it is
    ``SubStream(seed, start + i).raw(w)``.

    Philox4x64-10 with key (seed, 0) on the counters (j, 0, t, 0), where
    block j = 1, 2, ... gives words 4(j - 1) to 4j - 1 of trial t (numpy
    steps the counter before each block).  Only the blocks that cover
    ``words`` are computed.  The counters start as a row of blocks and a
    column of trials, so rounds 1 and 2 multiply trials + blocks words,
    not trials * blocks: only round 2's XORs broadcast to the full shape.
    """
    _check_seed(seed)
    if start < 0:
        raise ValueError("trial index must be nonnegative")
    if not isinstance(words, range):
        words = range(words)
    if words.step != 1 or words.start < 0:
        raise ValueError("words must be a range of step 1 from a nonnegative start")
    b0 = words.start // 4
    b1 = -(-words.stop // 4) if len(words) else b0
    c0 = np.arange(b0 + 1, b1 + 1, dtype=np.uint64)[None, :]
    c2 = np.arange(start, stop, dtype=np.uint64)[:, None]
    c1 = c3 = np.uint64(0)
    for r in range(10):
        k0 = np.uint64((seed + r * _PHILOX_W[0]) % _WORD)
        k1 = np.uint64(r * _PHILOX_W[1] % _WORD)
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    skip = words.start % 4
    out = np.stack((c0, c1, c2, c3), -1).reshape(c2.shape[0], 4 * (b1 - b0))
    return out[:, skip : skip + len(words)]


class SubStream:
    """Deterministic stream of draws for one (seed, trial) pair.

    The underlying generator is Philox with key = seed and a 256-bit
    counter whose high 128 bits hold the trial index, so distinct trials
    can never overlap no matter how much one trial consumes.

    ``next_trial`` moves the stream on to trial + 1, trial + 2, ... in
    turn, for less than constructing a new generator.  After w words of
    trial t the counter is (t << 128) + ceil(w / 4), with the rest of the
    last block buffered; ``next_trial`` advances the counter to
    (t + 1) << 128 and drops the buffer, which is where a new
    ``SubStream(seed, t + 1)`` starts.  So every trial gets exactly its
    own substream's words, whatever it drew before.
    """

    __slots__ = ("_bg", "_used")

    def __init__(self, seed: int, trial: int):
        _check_seed(seed)
        if trial < 0:
            raise ValueError("trial index must be nonnegative")
        self._bg = np.random.Philox(key=seed, counter=trial << 128)
        self._used = 0

    def raw(self, n: int) -> np.ndarray:
        """n uniform uint64 words; every other draw takes its words here."""
        self._used += n
        return self._bg.random_raw(n)

    def next_trial(self) -> "SubStream":
        """Move on to the next trial's substream; returns the stream."""
        self._bg.advance((1 << 128) - (-(-self._used // 4)))
        self._used = 0
        return self

    def bernoulli_mask(self, n: int, p: Fraction) -> np.ndarray:
        """uint8 vector of n independent Bernoulli(p) draws."""
        t = threshold_u64(p)
        return _below(self.raw(n), t)  # n words at every p, so later draws do not depend on p

    def bits(self, n: int) -> np.ndarray:
        """n fair coin flips as uint8."""
        u = self.raw(n)
        return (u & np.uint64(1)).astype(np.uint8)

    def symbols_mod(self, n: int, q: int) -> np.ndarray:
        """n uniform draws from {0, ..., q-1}, exactly uniform (rejection)."""
        if q < 1:
            raise ValueError("need q >= 1")
        if q == 1:
            return np.zeros(n, np.int64)
        rem = _WORD % q
        if rem == 0:  # q divides 2**64, so no rejection region, and u % q is u & (q - 1)
            u = self.raw(n)
            return (u & np.uint64(q - 1)).astype(np.int64)
        lim = np.uint64(_WORD - rem)
        out = np.empty(n, np.int64)
        filled = 0
        while filled < n:
            u = self.raw(n - filled)
            take = u[u < lim] % np.uint64(q)
            k = take.shape[0]
            out[filled : filled + k] = take.astype(np.int64)
            filled += k
        return out

    def integer_below(self, q: int) -> int:
        """One uniform draw from {0, ..., q-1}."""
        return int(self.symbols_mod(1, q)[0])


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if trials <= 0:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError("success count out of range")
    ph = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (ph + z2 / (2 * trials)) / denom
    half = (z / denom) * sqrt(ph * (1 - ph) / trials + z2 / (4 * trials * trials))
    lo = max(0.0, center - half)
    hi = min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class TrialReport:
    """Aggregate over a run of Bernoulli-outcome trials.

    ``successes`` counts occurrences of whatever event the run monitors
    (a decode failure, a full-rank draw, ...); ``estimate`` is the
    empirical probability of that event.
    """

    trials: int
    successes: int
    seed: int

    @property
    def estimate(self) -> float:
        return self.successes / self.trials

    def interval(self, z: float = 1.96) -> tuple[float, float]:
        return wilson_interval(self.successes, self.trials, z)


def _blocks(trials: int, seed: int, threads: int, size: int, draw):
    """Yield the draws of trials 0, ..., trials - 1 in consecutive blocks
    of at most ``size`` trials, trial t drawing exactly the words of
    ``SubStream(seed, t)``: for a callable ``draw``, the list of
    draw(stream) on one moved stream, valid only during that call; for a
    range of word indices (or a word count w, for range(w)) ``draw``, the
    (block trials, len(draw)) array of those words from ``_raw_words``.
    ``trials`` and ``threads`` must each be at least 1; ``threads``
    changes neither the draws nor the speed, and is kept so callers and
    the ``--threads`` option keep working.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if threads < 1:
        raise ValueError("need at least one thread")
    stream = SubStream(seed, 0) if callable(draw) else None
    for start in range(0, trials, size):
        stop = min(start + size, trials)
        if stream is None:
            yield _raw_words(seed, start, stop, draw)
        else:
            yield [draw(stream.next_trial() if t else stream) for t in range(start, stop)]


def run_trials(trials: int, fn, seed: int, threads: int = 1) -> list:
    """Evaluate fn(stream) for t in range(trials), in order, where stream
    draws exactly the words of ``SubStream(seed, t)``: one block of
    ``_blocks`` on a moved stream, so ``fn`` must not keep the stream
    past its call.  Every trial runs on the calling thread.
    """
    return next(_blocks(trials, seed, threads, trials, fn))
