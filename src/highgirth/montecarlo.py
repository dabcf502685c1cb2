"""Reproducible Monte Carlo driver.

Every trial draws from its own counter-based substream, keyed by (seed,
trial index).  Results are therefore byte-identical for a given seed,
and trial t can be replayed in isolation.
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


def threshold_u64(p: Fraction) -> int:
    """Integer t such that a uniform 64-bit draw u satisfies u < t with
    probability exactly floor(p * 2**64) / 2**64."""
    if not 0 <= p <= 1:
        raise ValueError("probability out of range")
    return (p.numerator << 64) // p.denominator


class SubStream:
    """Deterministic stream of draws for one (seed, trial) pair.

    The underlying generator is Philox with key = seed and a 256-bit
    counter whose high 128 bits hold the trial index, so distinct trials
    can never overlap no matter how much one trial consumes.
    """

    __slots__ = ("_bg",)

    def __init__(self, seed: int, trial: int):
        if not 0 <= seed < _WORD:
            raise ValueError("seed must fit in 64 bits")
        if trial < 0:
            raise ValueError("trial index must be nonnegative")
        self._bg = np.random.Philox(key=seed, counter=trial << 128)

    def raw(self, n: int) -> np.ndarray:
        """n uniform uint64 words."""
        return self._bg.random_raw(n)

    def bernoulli_mask(self, n: int, p: Fraction) -> np.ndarray:
        """uint8 vector of n independent Bernoulli(p) draws."""
        t = threshold_u64(p)
        if t == 0:
            self._bg.advance(n)  # keep stream position draw-for-draw stable
            return np.zeros(n, np.uint8)
        if t >= _WORD:
            self._bg.advance(n)
            return np.ones(n, np.uint8)
        u = self._bg.random_raw(n)
        return (u < np.uint64(t)).astype(np.uint8)

    def bits(self, n: int) -> np.ndarray:
        """n fair coin flips as uint8."""
        u = self._bg.random_raw(n)
        return (u & np.uint64(1)).astype(np.uint8)

    def symbols_mod(self, n: int, q: int) -> np.ndarray:
        """n uniform draws from {0, ..., q-1}, exactly uniform (rejection)."""
        if q < 1:
            raise ValueError("need q >= 1")
        if q == 1:
            return np.zeros(n, np.int64)
        rem = _WORD % q
        if rem == 0:  # q divides 2**64: no rejection region
            u = self._bg.random_raw(n)
            return (u % np.uint64(q)).astype(np.int64)
        lim = np.uint64(_WORD - rem)
        out = np.empty(n, np.int64)
        filled = 0
        while filled < n:
            u = self._bg.random_raw(n - filled)
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


def run_trials(trials: int, fn, seed: int, threads: int = 1) -> list:
    """Evaluate fn(SubStream(seed, t)) for t in range(trials), in order.

    Every trial runs on the calling thread.  ``threads`` must be at least
    1 and changes neither the output nor the speed: the trial callbacks
    hold the GIL, so a thread pool only added overhead.  It is kept so
    callers and the ``--threads`` option keep working.
    """
    if trials < 0:
        raise ValueError("trial count must be nonnegative")
    if threads < 1:
        raise ValueError("need at least one thread")
    return [fn(SubStream(seed, t)) for t in range(trials)]
