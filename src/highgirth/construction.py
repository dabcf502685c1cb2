"""Sierpinski transform and the check matrices carved out of it.

The n x n Sierpinski matrix (n a power of two) has a 1 at (i, j), both
0-based, exactly when the binary support of i is contained in that of j.
Its entries are 0/1, so it is a matrix over any field; it is unit upper
triangular (full rank everywhere), its own inverse over GF(2), and
applying it to a vector costs n log n field operations via a butterfly,
one body for every field.  Its rows come from one builder,
``fields._transform_rows``: ``sierpinski`` takes all of them, a check
matrix takes the selected ones, and ``read_check_matrix`` checks a
sidecar by rebuilding its rows and comparing.  ``sierpinski_row`` stays
a separate one-row form, so the exhaustive oracles below do not share
the builder.

A check matrix keeps the rows whose profile value survives a selection
rule.  Because the full transform is invertible, any row subset is
linearly independent, so the result always has full row rank; what the
profile buys is independence of sampled column subsets, which is what
the scan, the sampled full-rank estimate, and the exhaustive oracle
below measure.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._gf2core import rank_packed  # noqa: F401 - perfbench/layers.py wraps it here
from .fields import (
    GF2,
    BitBasis,
    ColumnSet,
    EnumerationBudget,
    FieldSpec,
    Matrix,
    VectorBasis,
    _bits_int,
    _read_text,
    _transform_rows,
    _write_text,
    independence_tracker,
    parse_probability,
    rank,
    read_matrix,
    vector,
    write_matrix,
)
from .montecarlo import (
    RNG_ID,
    SubStream,
    TrialReport,
    run_trials,
    threshold_u64,
)
from .polarize import (
    SelectionSpec,
    select_rows,
    select_rows_fast,
)

__all__ = [
    "sierpinski",
    "sierpinski_row",
    "sierpinski_transform",
    "CheckMatrix",
    "check_matrix",
    "expected_rank_oracle",
    "exhaustive_rank_profile",
    "independence_probability",
    "full_rank_probability",
    "EnumerationBudget",
    "GirthScanResult",
    "girth_scan",
    "write_scan_csv",
    "write_check_matrix",
    "read_check_matrix",
    "DENSE_TRANSFORM_CAP",
    "DENSE_FIELD_CAP",
    "EXACT_SELECTION_CAP",
    "RANK_VERIFY_CAP",
]

DENSE_TRANSFORM_CAP = 1 << 12
DENSE_FIELD_CAP = 1 << 10  # dense gfp/rational entries are much heavier
EXACT_SELECTION_CAP = 1 << 8
RANK_VERIFY_CAP = 1 << 10


def _require_pow2(n: int) -> int:
    if n < 1 or n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    return n.bit_length() - 1


def sierpinski_row(n: int, i: int) -> np.ndarray:
    """0-based row i as a uint8 vector, without building the matrix."""
    _require_pow2(n)
    if not 0 <= i < n:
        raise IndexError("row index out of range")
    j = np.arange(n)
    return ((i & ~j) == 0).astype(np.uint8)


def sierpinski(n: int, field: FieldSpec = FieldSpec.gf2()) -> Matrix:
    """Dense n x n transform matrix; 0/1 entries over the given field.

    Capped to keep memory sane; the caps differ because a packed gf2 row
    costs n/8 bytes while gfp and rational entries cost full words.
    """
    _require_pow2(n)
    cap = DENSE_TRANSFORM_CAP if field.kind == GF2 else DENSE_FIELD_CAP
    if n > cap:
        raise ValueError(
            f"dense transform over {field} capped at n={cap}; "
            "use sierpinski_row or sierpinski_transform"
        )
    return _transform_rows(field, n, range(n))


def sierpinski_transform(field: FieldSpec, x, inverse: bool = False):
    """Apply the transform (or its inverse) to a length-n vector.

    One butterfly pass per index bit h adds (inverse: subtracts) each
    entry with bit h set into its partner with bit h clear, reducing mod
    the field order when there is one.  The passes commute.  Over GF(2)
    adding and subtracting agree, so the map is an involution.
    """
    v = vector(field, x)
    k = _require_pow2(len(v))
    q = field.order
    a = np.array(v, dtype=None if q else object)
    for h in (1 << b for b in range(k)):
        w = a.reshape(-1, 2, h)
        if inverse:
            w[:, 0] -= w[:, 1]
        else:
            w[:, 0] += w[:, 1]
        if q:
            w[:, 0] %= q
    return a if q else a.tolist()


# ---------------------------------------------------------------------------
# check matrices


@dataclass(frozen=True, eq=False)
class CheckMatrix:
    """Selected transform rows packaged as a parity-check matrix.

    Entries are 0/1 whatever the field; the rows are fragments of a unit
    upper-triangular matrix, so rank equals len(rows) over every field.
    """

    n: int
    s: Fraction
    selection: SelectionSpec
    rows: ColumnSet  # 1-based indices into the full transform
    matrix: Matrix  # len(rows) x n

    @property
    def field(self) -> FieldSpec:
        return self.matrix.field

    @property
    def nchecks(self) -> int:
        return len(self.rows)

    @property
    def code_dimension(self) -> int:
        return self.n - len(self.rows)


def _rows_matrix(n: int, picked: ColumnSet, field: FieldSpec) -> Matrix:
    if field.kind != GF2 and n > DENSE_FIELD_CAP:
        raise ValueError(f"dense {field} check matrix capped at n={DENSE_FIELD_CAP}")
    return _transform_rows(field, n, np.array(picked.indices, np.int64) - 1)


def check_matrix(
    n: int,
    s,
    selection: SelectionSpec,
    field: FieldSpec = FieldSpec.gf2(),
) -> CheckMatrix:
    """Build the check matrix for sampling rate s under a selection rule.

    Exact selection up to n=256; beyond that select_rows_fast decides
    each leaf from a certified log-domain enclosure of its small tail and
    recomputes exactly only the leaves whose enclosure meets the cut, so
    the choice of path never changes the answer.  The full-rank recheck
    runs for n up to 1024 over gf2, 256 elsewhere.
    """
    sf = parse_probability(s, "s")
    if n <= EXACT_SELECTION_CAP:
        picked = select_rows(n, sf, selection)
    else:
        picked = select_rows_fast(n, sf, selection)
    m = _rows_matrix(n, picked, field)
    verify = n <= (RANK_VERIFY_CAP if field.kind == GF2 else EXACT_SELECTION_CAP)
    if verify and rank(m) != len(picked):
        raise AssertionError("selected rows lost rank; construction is broken")
    return CheckMatrix(n, sf, selection.resolve(n), picked, m)


# ---------------------------------------------------------------------------
# exhaustive oracles (small n): expected rank by brute force over subsets


def _subset_increments(n: int, s: Fraction, field: FieldSpec) -> tuple[Fraction, ...]:
    # sum over all 2**n column subsets S of weight(S) * [row i independent
    # of rows 1..i-1 once both are restricted to S]
    rows_bits = [sierpinski_row(n, i) for i in range(n)]
    rows_int = [_bits_int(b) for b in rows_bits]
    totals = [Fraction(0)] * n
    for mask in range(1 << n):
        k = mask.bit_count()
        weight = s**k * (1 - s) ** (n - k)
        if weight == 0:
            continue
        if field.kind == GF2:
            basis = BitBasis()
            for i in range(n):
                if basis.insert(rows_int[i] & mask):
                    totals[i] += weight
        else:
            cols = [j for j in range(n) if (mask >> j) & 1]
            basis = VectorBasis(field)
            for i in range(n):
                if basis.insert([int(rows_bits[i][j]) for j in cols]):
                    totals[i] += weight
    return tuple(totals)


def exhaustive_rank_profile(n: int, s, field: FieldSpec = FieldSpec.gf2()) -> tuple[Fraction, ...]:
    """Profile by brute force over all 2**n column subsets.

    For each subset S of columns, insert the transform rows restricted
    to S top to bottom into an incremental basis; row i contributes
    P(S) to leaf i when it lands outside the span of rows 1..i-1.
    Matches rank_profile exactly over every field; exponential, so n is
    capped hard at 12.
    """
    _require_pow2(n)
    if n > 12:
        raise EnumerationBudget(f"2**{n} subsets exceed the enumeration budget")
    sf = parse_probability(s, "s")
    return _subset_increments(n, sf, field)


def expected_rank_oracle(n: int, i: int, s, field: FieldSpec = FieldSpec.gf2()) -> Fraction:
    """Exact expected rank of the first i transform rows on sampled columns.

    Averages rank(rows 1..i restricted to S) over all 2**n Bernoulli(s)
    column subsets S, so it knows nothing about the branch recursion;
    consecutive differences in i are the independent check of the
    profile values.
    """
    _require_pow2(n)
    if n > 12:
        raise EnumerationBudget(f"2**{n} subsets exceed the enumeration budget")
    if not 0 <= i <= n:
        raise ValueError(f"row count {i} out of range for n={n}")
    if i == 0:
        return Fraction(0)
    sf = parse_probability(s, "s")
    inc = _subset_increments(n, sf, field)
    # per subset, rank of the first i rows telescopes over the insert
    # successes of rows 1..i, so the expectation is the prefix sum
    return sum(inc[:i], Fraction(0))


def independence_probability(m: Matrix, s, budget: int = 1 << 22) -> Fraction:
    """Exact P{Bernoulli(s)-sampled columns of m are linearly independent}.

    Depth-first over columns; a dependent branch is pruned because every
    superset of a dependent set is dependent.  ``budget`` caps visited
    nodes since the independent-subset count can still be exponential.
    """
    sf = parse_probability(s, "s")
    if sf == 0:
        return Fraction(1)
    n = m.ncols
    make_basis, cols = independence_tracker(m)
    nodes = 0

    def walk(j: int, basis, weight: Fraction) -> Fraction:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise EnumerationBudget(f"enumeration exceeded {budget} nodes")
        if j == n:
            return weight
        total = walk(j + 1, basis, weight * (1 - sf))
        grown = basis.copy()  # sibling branches never see this column
        if grown.insert(cols[j]):
            total += walk(j + 1, grown, weight * sf)
        return total

    return walk(0, make_basis(), Fraction(1))


# ---------------------------------------------------------------------------
# Monte Carlo: full row rank under sampled columns


def full_rank_probability(
    cm: CheckMatrix, s, trials: int, seed: int, threads: int = 1
) -> TrialReport:
    """Empirical P{sampled columns of the check matrix span all checks}.

    Each trial draws one Bernoulli(s) column subset S and counts a
    success when rank(R[:, S]) equals the check count.  Column draws use
    one uniform per column from the trial's substream, so reports are
    identical for any thread count.
    """
    sf = parse_probability(s, "s")
    if trials < 1:
        raise ValueError("need at least one trial")
    m = cm.matrix
    nchecks = cm.nchecks
    t_full = threshold_u64(sf)
    sample_all = t_full >= 1 << 64
    thr = np.uint64(min(t_full, (1 << 64) - 1))
    make_basis, cols = independence_tracker(m)

    def one_trial(stream: SubStream) -> bool:
        u = stream.raw(m.ncols)
        idx = range(m.ncols) if sample_all else np.nonzero(u < thr)[0].tolist()
        if len(idx) < nchecks:
            return False
        basis = make_basis()
        for j in idx:
            if len(basis) == nchecks:
                break
            basis.insert(cols[j])
        return len(basis) == nchecks

    results = run_trials(trials, one_trial, seed, threads)
    return TrialReport(trials, sum(1 for r in results if r), seed)


# ---------------------------------------------------------------------------
# sampled-column independence scan


@dataclass(frozen=True)
class GirthScanResult:
    """Empirical independence rates over a grid of sampling rates."""

    grid: tuple[Fraction, ...]
    estimates: tuple[TrialReport, ...]  # per grid point
    rng_id: str = RNG_ID

    @property
    def trials(self) -> int:
        return self.estimates[0].trials

    @property
    def seed(self) -> int:
        return self.estimates[0].seed

    def rates(self) -> tuple[float, ...]:
        return tuple(r.estimate for r in self.estimates)

    def intervals(self, z: float = 1.96) -> tuple[tuple[float, float], ...]:
        return tuple(r.interval(z) for r in self.estimates)


def girth_scan(m: Matrix, grid, trials: int, seed: int, threads: int = 1) -> GirthScanResult:
    """Sample columns at each rate in ``grid`` and test independence.

    All rates in one trial share that trial's uniform draws, so the
    per-trial indicators are coupled: a set sampled at a lower rate is a
    subset of the set at a higher rate, and the empirical success curve
    is exactly nonincreasing in s, not just in expectation.  The nesting
    also lets one basis per trial grow along the grid.  Any field works.
    """
    rates = tuple(parse_probability(g, "grid rate") for g in grid)
    if not rates:
        raise ValueError("empty grid")
    if any(b < a for a, b in zip(rates, rates[1:])):
        raise ValueError("grid must be sorted ascending")
    if trials < 1:
        raise ValueError("need at least one trial")
    thresholds = np.array([min(threshold_u64(r), (1 << 64) - 1) for r in rates], np.uint64)
    exact_one = [threshold_u64(r) >= 1 << 64 for r in rates]
    nrows, ncols = m.nrows, m.ncols
    make_basis, cols = independence_tracker(m)

    def one_trial(stream: SubStream) -> list[bool]:
        u = stream.raw(ncols)
        # the set sampled at a rate is a prefix of the columns sorted by u
        order = np.argsort(u, kind="stable")
        sizes = np.searchsorted(u[order], thresholds).tolist()
        order = order.tolist()
        basis = make_basis()
        done = 0
        for g, (size, full) in enumerate(zip(sizes, exact_one)):
            size = ncols if full else size
            if size > nrows or not all(basis.insert(cols[j]) for j in order[done:size]):
                # dependence is inherited by the superset at a higher rate
                return [True] * g + [False] * (len(rates) - g)
            done = size
        return [True] * len(rates)

    results = run_trials(trials, one_trial, seed, threads)
    reports = tuple(
        TrialReport(trials, sum(1 for r in results if r[g]), seed)
        for g in range(len(rates))
    )
    return GirthScanResult(rates, reports)


def write_scan_csv(res: GirthScanResult, target) -> None:
    lines = [
        f"# trials: {res.trials}",
        f"# seed: {res.seed}",
        f"# rng: {res.rng_id}",
        "s,p_hat,ci_lo,ci_hi,trials",
    ]
    for r, rep in zip(res.grid, res.estimates):
        lo, hi = rep.interval()
        lines.append(f"{r},{rep.estimate:.17g},{lo:.17g},{hi:.17g},{rep.trials}")
    _write_text(target, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# on-disk form: matrix text plus a json sidecar with the construction recipe


def write_check_matrix(cm: CheckMatrix, path: str) -> None:
    write_matrix(cm.matrix, path)
    meta = {
        "n": cm.n,
        "s": str(cm.s),
        "selection": cm.selection.to_json(),
        "H": list(cm.rows.indices),
    }
    _write_text(path + ".json", json.dumps(meta, indent=2) + "\n")


def read_check_matrix(path: str) -> CheckMatrix:
    """Load a matrix and its sidecar recipe, checked against each other.

    The sidecar's rows are rebuilt from the transform and must equal the
    matrix, so nothing derived from them (the Bhattacharyya bound, say)
    rests on the file's word alone.
    """
    m = read_matrix(path)
    meta = json.loads(_read_text(path + ".json"))
    try:
        n, s, selection, h = meta["n"], meta["s"], meta["selection"], meta["H"]
        selection = SelectionSpec.from_json(selection)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(
            f"sidecar {path}.json needs n, s, selection and H ({type(exc).__name__}: {exc})"
        ) from None
    if type(n) is not int or type(s) not in (int, str) or type(h) is not list:
        raise ValueError(f"sidecar {path}.json: n must be an int, s a string, H a list")
    if n != m.ncols:
        raise ValueError(f"sidecar n={n} does not match the matrix's {m.ncols} columns")
    rows = ColumnSet(tuple(h))
    if rows.indices and rows.indices[-1] > n:
        raise ValueError(f"sidecar row {rows.indices[-1]} out of range for n={n}")
    _require_pow2(n)
    if _rows_matrix(n, rows, m.field) != m:
        raise ValueError("sidecar rows H do not rebuild the matrix")
    return CheckMatrix(n, parse_probability(s, "s"), selection, rows, m)
