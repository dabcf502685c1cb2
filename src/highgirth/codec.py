"""Linear codes from check matrices: encoding, decoding, and error bounds.

One erasure decoder serves every field: it solves for the erased
coordinates from the syndrome with ``fields._solve_columns``, on the
check matrix's cached columns.  It fails exactly when the check-matrix
columns at the erased positions are linearly dependent, and the
simulator verifies that equivalence on every trial through a separate
oracle, ``fields.columns_independent``.  On a check matrix made of
transform rows the oracle answers from a successive-cancellation
certificate and eliminates only the erasure sets that leaves open, so
it shares no step with the decoder's solve.

The crossing-channel side is exact where it can be: the weight
enumerator is computed by full codeword enumeration (budgeted), the
union bound uses a certified rational Bhattacharyya bound, and maximum
likelihood decoding is brute force with a deterministic tie rule.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .channels import ChannelOutput, bhattacharyya_upper, bsc_transmit, mec_transmit
from .fields import (
    GF2,
    GFP,
    ColumnSet,
    EnumerationBudget,
    FieldSpec,
    Matrix,
    _as_column_set,
    _bits_int,
    _generator,
    _int_bits,
    _solve_columns,
    columns_independent,
    kernel,  # noqa: F401 - perfbench/layers.py wraps it here
    matvec,
    negate_vector,
    parse_probability,
    select_columns,  # noqa: F401 - perfbench/layers.py wraps it here
    solve_full,  # noqa: F401 - perfbench/layers.py wraps it here
    vector,
    vectors_equal,
    zero_vector,
)
from .montecarlo import RNG_ID, SubStream, run_trials, wilson_interval

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
        c = 0
        for bit, g in zip(msg, code.gen_ints):
            if bit:
                c ^= g
        return _int_bits(c, code.n)
    out = zero_vector(code.field, code.n)
    if code.field.kind == GFP:
        p = code.field.p
        acc = np.zeros(code.n, np.int64)
        for coeff, row in zip(msg, code.gen.to_rows()):
            if coeff:
                acc = (acc + int(coeff) * np.array(row, np.int64)) % p
        return acc
    acc = list(out)
    for coeff, row in zip(msg, code.gen.to_rows()):
        if coeff:
            acc = [a + coeff * r for a, r in zip(acc, row)]
    return acc


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

    Solves H_E @ x = -H @ y on the check matrix's cached columns at the
    erased positions E, so a trial builds no sub-matrix.  The syndrome
    reads the erased slots too; the channel leaves them 0, and then
    y + x on E is the sent codeword.
    """
    filled = vector(code.field, output.symbols)
    erased = _as_column_set(output.flagged, code.n, "erased")
    idx = list(erased.zero_based())
    syn = negate_vector(code.field, matvec(code.pcm, filled))
    rk, consistent, x = _solve_columns(code.pcm, idx, syn)
    if not consistent:
        return DecodeResult("inconsistent", None, erased)
    if rk < len(idx):
        return DecodeResult("ambiguous", None, erased)
    if isinstance(filled, np.ndarray):
        filled[idx] = x
    else:
        for pos, val in zip(idx, x):
            filled[pos] = val
    return DecodeResult("decoded", filled, erased)


def _report_skeleton(code: LinearCode, channel: str, pf: Fraction, trials: int, seed: int, selection) -> dict:
    # key order is part of the report contract; extras append at the end
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
    the oracle ``columns_independent`` whether the erased columns of the
    check matrix are dependent: a successive-cancellation certificate on
    a matrix of transform rows, with elimination for the sets it leaves
    open, apart from the decoder's solve.  The two verdicts must agree
    trial by trial; disagreements are counted and reported (and indicate
    a bug).

    Per trial the substream is consumed in a fixed order: message first,
    then the erasure pattern.  Over the rationals the zero codeword is
    sent (failure is codeword-independent for a linear code).
    """
    pf = parse_probability(p, "p")
    if trials < 1:
        raise ValueError("need at least one trial")

    def one_trial(stream: SubStream):
        if code.field.kind == GF2:
            msg = stream.bits(code.k)
        elif code.field.kind == GFP:
            msg = stream.symbols_mod(code.k, code.field.p)
        else:
            msg = zero_vector(code.field, code.k)
        cw = encode(code, msg)
        out = mec_transmit(code.field, cw, pf, stream)
        res = mec_decode(code, out)
        fail = res.status != "decoded"
        dep = not columns_independent(code.pcm, out.flagged)
        if not fail and not vectors_equal(res.codeword, cw):
            return (True, dep, True)  # decoded to the wrong codeword
        return (fail, dep, fail != dep)

    results = run_trials(trials, one_trial, seed, threads)
    failures = sum(1 for f, _, _ in results if f)
    dep_events = sum(1 for _, d, _ in results if d)
    mismatches = sum(1 for _, _, mm in results if mm)
    lo, hi = wilson_interval(failures, trials)
    report = _report_skeleton(code, "mec", pf, trials, seed, selection)
    report.update(
        {
            "failures": failures,
            "p_hat": failures / trials,
            "ci_lo": lo,
            "ci_hi": hi,
            "bounds": bounds,
            "dependence_events": dep_events,
            "dependence_rate": dep_events / trials,
            "mismatches": mismatches,
        }
    )
    return report


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


def weight_enumerator(code: LinearCode, budget: int = DEFAULT_ENUM_BUDGET) -> WeightEnumerator:
    """Exact weight counts by enumerating all codewords (gf2 only)."""
    if code.field.kind != GF2:
        raise ValueError("weight enumeration is gf2-only")
    if 1 << code.k > budget:
        raise EnumerationBudget(
            f"2**{code.k} codewords exceed the enumeration budget {budget}"
        )
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
    if code.field.kind != GF2:
        raise ValueError("ml decoding is gf2-only")
    if 1 << code.k > budget:
        raise EnumerationBudget(
            f"2**{code.k} codewords exceed the enumeration budget {budget}"
        )
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
    """
    pf = parse_probability(p, "p")
    if code.field.kind != GF2:
        raise ValueError("crossing-channel simulation is gf2-only")
    if trials < 1:
        raise ValueError("need at least one trial")
    if 1 << code.k > budget:
        raise EnumerationBudget(
            f"2**{code.k} codewords exceed the enumeration budget {budget}"
        )

    def one_trial(stream: SubStream) -> bool:
        msg = stream.bits(code.k)
        cw = encode(code, msg)
        out = bsc_transmit(cw, pf, stream)
        res = ml_decode_bsc(code, out.symbols, budget)
        return not res.unique or not vectors_equal(res.codeword, cw)

    results = run_trials(trials, one_trial, seed, threads)
    errors = sum(1 for e in results if e)
    lo, hi = wilson_interval(errors, trials)
    report = _report_skeleton(code, "bsc", pf, trials, seed, selection)
    report.update(
        {
            "failures": errors,
            "p_hat": errors / trials,
            "ci_lo": lo,
            "ci_hi": hi,
            "bounds": bounds,
        }
    )
    return report


def render_report(report: dict) -> str:
    """Stable one-report-per-call JSON text."""
    return json.dumps(report, indent=2) + "\n"
