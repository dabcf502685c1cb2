"""Linear codes from check matrices: encoding, decoding, and error bounds.

One erasure decoder serves every field: ``mec_decode`` is the one-lane
adapter of its body, ``fields._erasure_decode``.  The decoder fails
exactly when the check-matrix columns at the erased positions are
linearly dependent, and the simulator, ``mec_error_rate``, verifies that
equivalence on every trial through a separate oracle, whose one body is
``fields._flags_independent`` (``columns_independent`` is its public
adapter).  The simulator runs its trials in lane blocks and calls both
bodies directly.  The lane layout, and how the decoder and the oracle
use the butterfly graph on a check matrix of transform rows, are
described in ``_butterfly``.

The crossing-channel side is exact where it can be: the weight
enumerator is computed by full codeword enumeration (budgeted), the
union bound uses a certified rational Bhattacharyya bound, and maximum
likelihood decoding is brute force with a deterministic tie rule.  The
crossing-channel simulator runs its trials in blocks: one numpy pass
draws a block's words and one popcount pass over the packed codewords
decides every trial of the block.  Both simulators take their blocks
from ``montecarlo._blocks``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .channels import ChannelOutput, bhattacharyya_upper
from .channels import bsc_transmit  # noqa: F401 - perfbench/layers.py wraps it here
from .channels import mec_transmit  # noqa: F401 - perfbench/layers.py wraps it here
from ._butterfly import _flag_int, _interleave, _lanes_any, _polar_block
from ._gf2core import _bits_int, _int_bits, _pack_rows_u8, _xor_at
from .fields import (
    GF2,
    GFP,
    ColumnSet,
    EnumerationBudget,
    FieldSpec,
    Matrix,
    _as_column_set,
    _erasure_decode,
    _flags_independent,
    _generator,
    _scaled_sum,
    columns_independent,  # noqa: F401 - perfbench/layers.py wraps it here
    kernel,  # noqa: F401 - perfbench/layers.py wraps it here
    matvec,
    parse_probability,
    select_columns,  # noqa: F401 - perfbench/layers.py wraps it here
    solve_full,  # noqa: F401 - perfbench/layers.py wraps it here
    vector,
    vectors_equal,
    zero_vector,
)
from .montecarlo import RNG_ID, _below, _blocks, threshold_u64, wilson_interval
from .montecarlo import run_trials  # noqa: F401 - perfbench/layers.py wraps it here

__all__ = [
    "LinearCode",
    "code_from_pcm",
    "encode",
    "syndrome",
    "DecodeResult",
    "mec_decode",
    "mec_error_rate",
    "WeightEnumerator",
    "weight_enumerator",
    "union_bound_bsc",
    "union_bound_mec",
    "channel_bounds",
    "pairwise_tail",
    "tail_dominated",
    "MLResult",
    "ml_decode_bsc",
    "bsc_error_rate",
    "DEFAULT_ENUM_BUDGET",
]

DEFAULT_ENUM_BUDGET = 1 << 20


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A linear code given by its parity checks and a matching generator.

    Generator rows span the kernel of the check matrix, so k = n - rank.
    For gf2 codes the generator rows are mirrored as little-endian ints
    to make codeword enumeration cheap.
    """

    field: FieldSpec
    n: int
    k: int
    pcm: Matrix
    gen: Matrix
    gen_ints: tuple[int, ...] | None

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k, self.n)


def code_from_pcm(pcm: Matrix) -> LinearCode:
    """Code with the given checks; rank-deficient check sets are allowed."""
    gen, gi = _generator(pcm)
    return LinearCode(pcm.field, pcm.ncols, gen.nrows, pcm, gen, gi)


def encode(code: LinearCode, message):
    """Codeword for a length-k message over the code's field."""
    msg = vector(code.field, message)
    if len(msg) != code.k:
        raise ValueError(f"message length {len(msg)} != k={code.k}")
    if code.field.kind == GF2:
        return _int_bits(_xor_at(code.gen_ints, msg), code.n)
    if code.field.kind == GFP:
        # each product is reduced before summing, so no sum overflows int64
        p = code.field.p
        return (msg[:, None] * code.gen._data % p).sum(axis=0) % p
    return _scaled_sum(*code.gen._row_vectors(), msg, code.n)


def syndrome(code: LinearCode, received):
    return matvec(code.pcm, received)


# ---------------------------------------------------------------------------
# erasure decoding


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """status: "decoded" | "ambiguous" | "inconsistent".

    "ambiguous": several completions satisfy the checks (the erased
    columns are dependent).  "inconsistent": no completion does, which
    cannot happen when the input really is a codeword with erasures.
    """

    status: str
    codeword: object | None
    erased: ColumnSet


def mec_decode(code: LinearCode, output: ChannelOutput) -> DecodeResult:
    """Fill erased coordinates by solving the syndrome equations.

    The erased slots get x with H_E @ x = -H @ y, E the erased positions
    and y the received word with its erased slots zeroed: whatever
    symbols those slots hold are ignored, so a "decoded" word always
    satisfies the checks.  The word is canonicalized with ``vector`` and
    the erased set made a flag int, and ``fields._erasure_decode`` decodes
    them.
    """
    word = vector(code.field, output.symbols)
    erased = _as_column_set(output.flagged, code.n, "erased")
    if len(word) != code.n:
        raise ValueError(f"received word length {len(word)} != n={code.n}")
    gf2 = code.field.kind == GF2
    statuses, c = _erasure_decode(code.pcm, _bits_int(word) if gf2 else [word], _flag_int(erased.indices, code.n), 1)
    if statuses[0] != "decoded":
        c = None
    elif gf2:
        c = _int_bits(c, code.n)
    else:
        c = c[0]
    return DecodeResult(statuses[0], c, erased)


def _report(code: LinearCode, channel: str, pf: Fraction, trials: int, seed: int, selection, failures: int, bounds) -> dict:
    # key order is part of the report contract; extras append at the end
    lo, hi = wilson_interval(failures, trials)
    return {
        "code": {
            "n": code.n,
            "k": code.k,
            "field": code.field.name(),
            "selection": selection,
        },
        "channel": channel,
        "p": str(pf),
        "p_float": float(pf),
        "trials": trials,
        "seed": seed,
        "rng_id": RNG_ID,
        "failures": failures,
        "p_hat": failures / trials,
        "ci_lo": lo,
        "ci_hi": hi,
        "bounds": bounds,
    }


def mec_error_rate(
    code: LinearCode,
    p,
    trials: int,
    seed: int,
    threads: int = 1,
    selection: str | None = None,
    bounds: dict | None = None,
) -> dict:
    """Monte Carlo erasure-decoding failure rate with a built-in oracle.

    Each trial draws a message, encodes, erases, decodes, and also asks
    the oracle whether the erased columns of the check matrix are
    dependent.  The two verdicts must agree trial by trial;
    disagreements are counted and reported (and indicate a bug).

    Trials run in blocks of ``_LANE_BITS // n`` lanes (at least one), in
    ``_butterfly``'s lane layout: the block's erased sets are one flag
    int, and over GF(2) its words are one int too, so the check against
    the sent words is one fold to a lane mask.  The oracle's verdicts are
    a lane mask as well, and the block's failures, dependence events and
    mismatches are popcounts of masks.  Over GF(2) on a matrix
    of transform rows the block's codewords are ``_polar_block``'s, with
    the message bits on the rows that are not frozen, so every c is a
    codeword; it is not ``encode``'s codeword for the message, but over
    GF(2) a trial's verdicts depend only on its erased set.  Other GF(2)
    matrices sum generator rows, GF(p) calls ``encode``, and over the
    rationals the zero codeword is sent (failure is codeword-independent
    for a linear code).

    A trial's draws are the message (``symbols_mod``; nothing over GF(2)
    and the rationals), then k message bits over GF(2) and the n words
    of the erasure pattern (``bernoulli_mask``), in one ``raw`` call; the
    blocks come from ``montecarlo._blocks`` on a moved stream.
    ``threads`` must be at least 1 and does not change the bytes of the
    report.
    """
    pf = parse_probability(p, "p")
    pcm, n, k, q = code.pcm, code.n, code.k, code.field.order
    gf2 = code.field.kind == GF2
    frozen = pcm._frozen_rows() if gf2 else None
    thr = threshold_u64(pf)
    kw = k if gf2 else 0  # message words drawn with the flags: q = 2 rejects none
    gfp = q and not gf2

    def draw(stream):
        return stream.symbols_mod(k, q) if gfp else None, stream.raw(kw + n)

    failures = dep_events = mismatches = 0
    for block in _blocks(trials, seed, threads, max(1, _LANE_BITS // max(n, 1)), draw):
        size = len(block)
        words = np.empty((kw + n, size), np.uint64)  # column t is trial t's words
        for t, (_, w) in enumerate(block):
            words[:, t] = w
        f = _bits_int(_below(words[kw:], thr))
        if frozen is not None:
            sent = _polar_block(frozen, n, words[:k] & np.uint64(1))
        elif gf2:
            sent = _interleave([_xor_at(code.gen_ints, b) for b in (words[:k] & np.uint64(1)).T], n)
        elif gfp:
            sent = [encode(code, msg) for msg, _ in block]
        else:
            sent = [zero_vector(code.field, n)] * size
        statuses, decoded = _erasure_decode(pcm, sent, f, size)
        if gf2:
            wrong = _lanes_any(decoded ^ sent, n, size)
        else:
            pairs = enumerate(zip(sent, decoded))
            wrong = sum(1 << t for t, (c, w) in pairs if w is not None and not vectors_equal(w, c))
        failed = sum((status != "decoded") << t for t, status in enumerate(statuses))
        dep = (1 << size) - 1 & ~_flags_independent(pcm, f, size)
        wrong &= ~failed  # decoded to the wrong codeword: a failure and a mismatch
        failures += (failed | wrong).bit_count()
        dep_events += dep.bit_count()
        mismatches += (wrong | failed ^ dep).bit_count()
    report = _report(code, "mec", pf, trials, seed, selection, failures, bounds)
    report.update(
        {
            "dependence_events": dep_events,
            "dependence_rate": dep_events / trials,
            "mismatches": mismatches,
        }
    )
    return report


# bits in a block of erasure trials: 64 lanes at n = 1024, one at n >= 65536
_LANE_BITS = 1 << 16


# ---------------------------------------------------------------------------
# weight structure and crossing-channel bounds


@dataclass(frozen=True)
class WeightEnumerator:
    """counts[w] = number of codewords of Hamming weight w."""

    n: int
    k: int
    counts: tuple[int, ...]

    @property
    def min_distance(self) -> int | None:
        for w in range(1, self.n + 1):
            if self.counts[w]:
                return w
        return None  # zero code


def _gray_codewords(code: LinearCode):
    """Yield all 2**k gf2 codewords as ints, one generator-row flip apart."""
    c = 0
    yield c
    for t in range(1, 1 << code.k):
        c ^= code.gen_ints[(t & -t).bit_length() - 1]
        yield c


def _enumerable(code: LinearCode, budget: int, what: str) -> None:
    """Refuse to enumerate a code that is not over GF(2) or has more than
    ``budget`` codewords."""
    if code.field.kind != GF2:
        raise ValueError(f"{what} is gf2-only")
    if 1 << code.k > budget:
        raise EnumerationBudget(
            f"2**{code.k} codewords exceed the enumeration budget {budget}"
        )


def weight_enumerator(code: LinearCode, budget: int = DEFAULT_ENUM_BUDGET) -> WeightEnumerator:
    """Exact weight counts by enumerating all codewords (gf2 only)."""
    _enumerable(code, budget, "weight enumeration")
    counts = [0] * (code.n + 1)
    for c in _gray_codewords(code):
        counts[c.bit_count()] += 1
    return WeightEnumerator(code.n, code.k, tuple(counts))


def _union_bound(enum: WeightEnumerator, z: Fraction) -> Fraction:
    total = Fraction(0)
    zw = Fraction(1)
    for w in range(1, enum.n + 1):
        zw *= z
        if enum.counts[w]:
            total += enum.counts[w] * zw
    return total


def union_bound_bsc(enum: WeightEnumerator, p) -> Fraction:
    """Sum of N(w) * z**w over w >= 1, z the certified rational bound.

    Bounds the ML block error rate; can exceed 1, clamp when reporting.
    """
    return _union_bound(enum, bhattacharyya_upper(p))


def union_bound_mec(enum: WeightEnumerator, p) -> Fraction:
    """Sum of N(w) * p**w over w >= 1: some nonzero codeword fully erased.

    Bounds the erasure-decoding failure rate (a failure needs a kernel
    vector supported inside the erased set).
    """
    return _union_bound(enum, parse_probability(p, "p"))


def channel_bounds(
    code: LinearCode,
    channel: str,
    p,
    rows: ColumnSet | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> dict:
    """The two analytic failure bounds, clamped to [0, 1], both forms.

    "union" needs the weight enumerator, so it is None past the
    enumeration budget; "bhatt" needs the selected-row set of the check
    construction, so it is None for a generic pcm.
    """
    from .polarize import bhattacharyya_sum

    if channel not in ("bsc", "mec"):
        raise ValueError(f"unknown channel {channel!r}: use 'bsc' or 'mec'")
    pf = parse_probability(p, "p")
    union = None
    if code.field.kind == GF2 and (1 << code.k) <= budget:
        enum = weight_enumerator(code, budget)
        b = union_bound_bsc(enum, pf) if channel == "bsc" else union_bound_mec(enum, pf)
        union = min(Fraction(1), b)
    bhatt = None
    if rows is not None:
        z0 = bhattacharyya_upper(pf) if channel == "bsc" else pf
        bhatt = min(Fraction(1), bhattacharyya_sum(code.n, z0, rows))
    return {
        "union": None if union is None else str(union),
        "union_float": None if union is None else float(union),
        "bhatt": None if bhatt is None else str(bhatt),
        "bhatt_float": None if bhatt is None else float(bhatt),
    }


def pairwise_tail(w: int, p) -> Fraction:
    """P{Bin(w, p) >= ceil(w/2)}: the chance the channel flips a
    codeword at distance w into the wrong half, ties counted against us."""
    if w < 1:
        raise ValueError("distance must be positive")
    pf = parse_probability(p, "p")
    q = 1 - pf
    lo = (w + 1) // 2
    return sum(comb(w, j) * pf**j * q ** (w - j) for j in range(lo, w + 1))


def tail_dominated(w: int, p) -> bool:
    """Exact check that pairwise_tail(w, p) <= (2*sqrt(p*(1-p)))**w.

    Both sides are compared through their squares, so the irrational
    right-hand side never needs rounding.
    """
    pf = parse_probability(p, "p")
    t = pairwise_tail(w, pf)
    return t * t <= (4 * pf * (1 - pf)) ** w


@dataclass(frozen=True, eq=False)
class MLResult:
    codeword: np.ndarray
    distance: int
    unique: bool


def ml_decode_bsc(code: LinearCode, received, budget: int = DEFAULT_ENUM_BUDGET) -> MLResult:
    """Nearest codeword in Hamming distance by full enumeration.

    Ties go to the numerically smallest codeword (little-endian value),
    a fixed rule so runs are reproducible; ``unique`` reports whether
    the minimum was attained once.
    """
    _enumerable(code, budget, "ml decoding")
    y = _bits_int(vector(code.field, received))
    best_c = 0
    best_d = code.n + 1
    count_at_best = 0
    for c in _gray_codewords(code):
        d = (c ^ y).bit_count()
        if d < best_d:
            best_d, best_c, count_at_best = d, c, 1
        elif d == best_d:
            count_at_best += 1
            if c < best_c:
                best_c = c
    return MLResult(_int_bits(best_c, code.n), best_d, count_at_best == 1)


def bsc_error_rate(
    code: LinearCode,
    p,
    trials: int,
    seed: int,
    threads: int = 1,
    budget: int = DEFAULT_ENUM_BUDGET,
    selection: str | None = None,
    bounds: dict | None = None,
) -> dict:
    """Monte Carlo ML block error rate on the crossing channel (gf2).

    A trial errs when the decoder returns any codeword other than the
    transmitted one, or ties (the fixed rule may land elsewhere, and a
    tie is already a coin flip the code lost).  Substream order:
    message, then flips.

    Trials run in blocks of ``montecarlo._blocks``, replayed in numpy:
    word k + j of a trial's substream flips bit j when it is below
    ``threshold_u64(p)``.  With flip pattern e the received word is the
    sent one plus e, so by linearity a trial errs exactly when some
    nonzero codeword c has |c + e| <= |e|: the message words keep their
    place in the stream but cannot change the verdict, so the replay
    skips them (it asks for words k to k + n - 1 only) instead of
    drawing and discarding them.  One popcount pass compares e against
    every codeword.  The codewords are the sums of a low table (every
    sum of the first generators) and one sum of the rest, walked in
    Gray-code order, and the block is sized so no array holds more than
    ``_BLOCK_WORDS`` words (beyond those of a single trial).
    ``threads`` must be at least 1 and does not change the bytes of the
    report.
    """
    pf = parse_probability(p, "p")
    _enumerable(code, budget, "crossing-channel simulation")
    n, k = code.n, code.k
    gens = code.gen.packed
    nw = gens.shape[1]
    # the low table: every sum of the first a generators, within one block
    a = min(k, max(0, (_BLOCK_WORDS // max(nw, 1)).bit_length() - 1))
    low = np.zeros((1, nw), np.uint64)
    for g in gens[:a]:
        low = np.concatenate((low, low ^ g))
    step = max(1, _BLOCK_WORDS // max(k + n, low.size, 1))
    thr = threshold_u64(pf)
    errors = 0
    for w in _blocks(trials, seed, threads, step, range(k, k + n)):
        e = _pack_rows_u8(_below(w, thr))
        we = _weights(e)[:, None]
        # count the codewords c with |c + e| <= |e|, c = 0 among them
        hits = 0
        for t in range(1 << (k - a)):
            if t:  # the next sum of the other generators, one flip away
                e ^= gens[a + (t & -t).bit_length() - 1]
            hits = hits + (_weights(e[:, None] ^ low) <= we).sum(1)
        errors += int(np.count_nonzero(hits > 1))
    return _report(code, "bsc", pf, trials, seed, selection, errors, bounds)


# no array in a bsc_error_rate block holds more words, unless one trial does
_BLOCK_WORDS = 1 << 16


def _weights(words: np.ndarray) -> np.ndarray:
    """Hamming weight of each vector of uint64 words along the last axis:
    numpy's per-word popcount (``bitwise_count``, numpy 2.0), summed."""
    return np.bitwise_count(words).sum(-1)


def render_report(report: dict) -> str:
    """Stable one-report-per-call JSON text."""
    return json.dumps(report, indent=2) + "\n"
