"""Reference computations that the benchmark checks highgirth against.

Everything here is written from the definitions and imports nothing from
highgirth, so a fault in the program cannot hide in its own check:

- ``leaves``: the profile recursion x -> (2x - x**2, x**2) on integer
  numerators over one shared denominator;
- ``kron_row``: rows of the Kronecker power of [[1, 1], [0, 1]];
- ``gf2_rank``: rank of GF(2) vectors held as Python ints;
- ``codewords`` and ``ml_failures``: exhaustive maximum-likelihood decoding
  of a small binary linear code on the crossing channel, ties counted as
  errors;
- ``philox_words`` and ``below``: the documented per-trial draws
  (Philox4x64 keyed by the seed, counter = trial << 128) and the exact
  Bernoulli threshold floor(p * 2**64).
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_KERNEL = np.array([[1, 1], [0, 1]], np.uint8)


def levels(n: int) -> int:
    if n < 1 or n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    return n.bit_length() - 1


def denominator(n: int, s: Fraction) -> int:
    """Shared denominator of the n leaves of s: s.denominator ** n."""
    return s.denominator ** n


def leaves(n: int, s: Fraction):
    """Yield the numerators of the n profile leaves of s, in leaf order.

    Every leaf equals numerator / denominator(n, s).  Leaf i (0-based)
    follows the bits of i from the most significant: 0 takes 2x - x**2,
    1 takes x**2.  A level-l value a / D becomes (2aD - a**2) / D**2 and
    a**2 / D**2, so no gcd is ever taken.  The walk is depth first and
    holds only log2(n) numbers at a time.
    """
    depth = levels(n)
    dens = [s.denominator]
    for _ in range(depth):
        dens.append(dens[-1] ** 2)

    def walk(num: int, level: int):
        if level == depth:
            yield num
            return
        sq = num * num
        yield from walk(2 * num * dens[level] - sq, level + 1)
        yield from walk(sq, level + 1)

    yield from walk(s.numerator, 0)


def top_rows(n: int, s: Fraction, count: int) -> tuple[int, ...]:
    """1-based rows of the count largest leaves, ties to the smaller index."""
    nums = list(leaves(n, s))
    order = sorted(range(n), key=lambda j: (-nums[j], j))
    return tuple(sorted(j + 1 for j in order[:count]))


def paper_exponent(n: int) -> int:
    """ceil(n ** 0.49): the smallest e with e**100 >= n**49."""
    e = 1
    while e**100 < n**49:
        e += 1
    return e


def threshold_rows(n: int, s: Fraction, exponent: int) -> tuple[int, ...]:
    """1-based rows whose leaf exceeds 1 - 2**-exponent."""
    d = denominator(n, s)
    return tuple(
        j + 1 for j, num in enumerate(leaves(n, s)) if (d - num) << exponent < d
    )


def unselected_sum(n: int, s: Fraction, rows) -> Fraction:
    """Exact sum of the leaves of s outside the 1-based ``rows``."""
    keep = set(rows)
    total = sum(num for j, num in enumerate(leaves(n, s)) if j + 1 not in keep)
    return Fraction(total, denominator(n, s))


def kron_row(n: int, i: int) -> np.ndarray:
    """0-based row i of the log2(n)-fold Kronecker power of [[1, 1], [0, 1]]."""
    row = np.ones(1, np.uint8)
    for b in range(levels(n) - 1, -1, -1):
        row = np.kron(row, _KERNEL[(i >> b) & 1])
    return row


def unpack(packed: np.ndarray, ncols: int) -> np.ndarray:
    """Dense 0/1 rows from little-endian uint64 words (column j in word
    j >> 6, bit j & 63)."""
    words = np.ascontiguousarray(packed, dtype="<u8")
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :ncols]


def column_ints(dense: np.ndarray) -> list[int]:
    """Column j of a dense 0/1 matrix as an int with bit i = entry (i, j)."""
    cols = np.packbits(dense.T.astype(np.uint8), axis=1, bitorder="little")
    return [int.from_bytes(c.tobytes(), "little") for c in cols]


def int_bits(v: int, n: int) -> np.ndarray:
    """Bits 0 .. n-1 of v as a 0/1 vector."""
    raw = np.frombuffer(v.to_bytes((n + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n]


def gf2_rank(vectors) -> int:
    """Rank over GF(2) of vectors given as ints (bit i = coordinate i)."""
    pivots = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            p = pivots.get(top)
            if p is None:
                pivots[top] = v
                break
            v ^= p
    return len(pivots)


def independent_prefix(vectors) -> int:
    """Length of the longest independent prefix of ``vectors``."""
    pivots = {}
    for count, v in enumerate(vectors):
        while v:
            top = v.bit_length() - 1
            p = pivots.get(top)
            if p is None:
                pivots[top] = v
                break
            v ^= p
        else:
            return count
    return len(pivots)


def popcount(x: np.ndarray) -> np.ndarray:
    """Set bits of each entry of a nonnegative integer array."""
    by = np.ascontiguousarray(x, dtype="<u8")[..., None].view(np.uint8)
    return np.unpackbits(by, axis=-1).sum(axis=-1)


def codewords(h: np.ndarray) -> np.ndarray:
    """Every x in GF(2)^n with h x = 0, as ints (bit j = coordinate j)."""
    n = h.shape[1]
    if n > 20:
        raise ValueError("exhaustive enumeration is for n <= 20")
    xs = np.arange(1 << n, dtype=np.int64)
    bits = (xs[:, None] >> np.arange(n)) & 1
    syn = (bits @ h.T.astype(np.int64)) & 1
    return xs[~syn.any(axis=1)]


def ml_failures(h: np.ndarray) -> np.ndarray:
    """Boolean per error pattern e (indexed by e as an int): does ML
    decoding of c + e miss c or tie?

    For a linear code the answer does not depend on c: some other
    codeword is at least as close exactly when a nonzero codeword w has
    |e + w| <= |e|.
    """
    n = h.shape[1]
    words = codewords(h)
    others = words[words != 0]
    e = np.arange(1 << n, dtype=np.int64)
    if others.size == 0:
        return np.zeros(e.shape, bool)
    nearest = popcount(e[:, None] ^ others[None, :]).min(axis=1)
    return nearest <= popcount(e)


def block_error(h: np.ndarray, p: Fraction) -> Fraction:
    """Exact ML block-error probability on the crossing channel at p."""
    n = h.shape[1]
    fails = ml_failures(h)
    by_weight = np.bincount(popcount(np.nonzero(fails)[0]), minlength=n + 1)
    return sum(
        (int(c) * p**w * (1 - p) ** (n - w) for w, c in enumerate(by_weight)),
        Fraction(0),
    )


def weight_counts(h: np.ndarray) -> list[int]:
    """counts[w] = number of codewords of weight w."""
    n = h.shape[1]
    return np.bincount(popcount(codewords(h)), minlength=n + 1).tolist()


def below(p: Fraction) -> int:
    """t with P(u < t) = floor(p * 2**64) / 2**64 for a uniform 64-bit u."""
    return (p.numerator << 64) // p.denominator


def philox_words(seed: int, trial: int, count: int) -> np.ndarray:
    """The first ``count`` 64-bit words that trial ``trial`` draws."""
    return np.random.Philox(key=seed, counter=trial << 128).random_raw(count)


def binomial_cdf(n: int, p: Fraction, k: int) -> Fraction:
    """P(Bin(n, p) <= k), exactly."""
    return sum(
        (math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k + 1)),
        Fraction(0),
    )


def wilson(successes: int, trials: int, z: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    ph = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (ph + z2 / (2 * trials)) / denom
    half = z / denom * math.sqrt(ph * (1 - ph) / trials + z2 / (4 * trials**2))
    return max(0.0, center - half), min(1.0, center + half)
