"""Sparse recovery against an exact measurement matrix.

A k-sparse signal is recoverable from y = A x for every x with support
size k exactly when no 2k columns of A are dependent, so certification
is a bounded subset search and recovery itself is exact minimum-support
search.  Both are exponential and budgeted; this module is for exact
ground truth at small sizes, not for scale.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from .fields import (
    GF2,
    GFP,
    ColumnSet,
    EnumerationBudget,
    FieldSpec,
    Matrix,
    _solve_columns,
    columns_independent,
    matvec,
    parse_probability,
    vector,
    zero_vector,
    first_dependent_subset,
)
from .montecarlo import RNG_ID, SubStream, TrialReport, run_trials

__all__ = [
    "SparseSignal",
    "UniformSupport",
    "BernoulliSupport",
    "draw_signal",
    "measure",
    "SparkResult",
    "spark_certificate",
    "support_failure_rate",
    "support_failure_expectation",
    "support_report",
    "L0Result",
    "l0_recover",
]


@dataclass(frozen=True, eq=False)
class SparseSignal:
    """A vector stored as (support, values); indices 1-based, sorted."""

    field: FieldSpec
    n: int
    support: ColumnSet
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.support):
            raise ValueError("one value per support index")
        if self.support.indices and self.support.indices[-1] > self.n:
            raise ValueError("support index out of range")
        canon = vector(self.field, self.values)
        object.__setattr__(
            self,
            "values",
            tuple(v if isinstance(v, Fraction) else int(v) for v in canon),
        )

    def dense(self):
        out = zero_vector(self.field, self.n)
        for pos, val in zip(self.support.zero_based(), self.values):
            out[pos] = val
        return out

    @property
    def sparsity(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class UniformSupport:
    """Uniformly random support of fixed size k."""

    k: int

    def draw(self, n: int, stream: SubStream) -> ColumnSet:
        if not 0 <= self.k <= n:
            raise ValueError(f"support size {self.k} out of range for n={n}")
        # partial Fisher-Yates so exactly k draws decide the support
        pool = list(range(n))
        for i in range(self.k):
            j = i + stream.integer_below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return ColumnSet.of(p + 1 for p in pool[: self.k])

    def name(self) -> str:
        return f"uniform:{self.k}"


@dataclass(frozen=True)
class BernoulliSupport:
    """Each coordinate enters the support independently with rate q."""

    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", parse_probability(self.q, "q"))

    def draw(self, n: int, stream: SubStream) -> ColumnSet:
        mask = stream.bernoulli_mask(n, self.q)
        return ColumnSet(tuple(int(j) + 1 for j in np.nonzero(mask)[0]))

    def name(self) -> str:
        return f"bernoulli:{self.q}"


def draw_signal(field: FieldSpec, n: int, model, stream: SubStream) -> SparseSignal:
    """Random signal: model picks the support, values are nonzero draws.

    gf2 values are forced to 1; prime-field values are uniform over the
    nonzero residues; rational values are uniform over 1..9 (arbitrary
    but fixed; recovery math never depends on the magnitudes).
    """
    support = model.draw(n, stream)
    k = len(support)
    if field.kind == GF2:
        values = (1,) * k
    elif field.kind == GFP:
        values = tuple(1 + stream.integer_below(field.p - 1) for _ in range(k))
    else:
        values = tuple(Fraction(1 + stream.integer_below(9)) for _ in range(k))
    return SparseSignal(field, n, support, values)


def measure(a: Matrix, signal: SparseSignal):
    if a.ncols != signal.n:
        raise ValueError("matrix width does not match signal length")
    if a.field != signal.field:
        raise ValueError("field mismatch")
    return matvec(a, signal.dense())


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class SparkResult:
    """status "certified": every subset of 2k columns is independent, so
    k-sparse recovery from exact measurements is unique.  "refuted": the
    witness columns are dependent.  "budget": undecided."""

    status: str
    k: int
    witness: ColumnSet | None
    tested: int


def spark_certificate(a: Matrix, k: int, budget: int = 1 << 22) -> SparkResult:
    if k < 1:
        raise ValueError("sparsity must be positive")
    res = first_dependent_subset(a, 2 * k, budget)
    if res.status == "independent":
        return SparkResult("certified", k, None, res.tested)
    if res.status == "found":
        return SparkResult("refuted", k, res.witness, res.tested)
    return SparkResult("budget", k, None, res.tested)


# ---------------------------------------------------------------------------
# random-support failure probability


def support_failure_rate(
    a: Matrix, model, trials: int, seed: int, threads: int = 1
) -> TrialReport:
    """Monte Carlo P{columns of a at a random support are dependent}."""
    if trials < 1:
        raise ValueError("need at least one trial")

    def one_trial(stream: SubStream) -> bool:
        return not columns_independent(a, model.draw(a.ncols, stream))

    results = run_trials(trials, one_trial, seed, threads)
    return TrialReport(trials, sum(1 for f in results if f), seed)


def support_report(a: Matrix, model, rep: TrialReport, certificate: SparkResult | None = None) -> dict:
    """Archival JSON for a support-failure run, certificate attached."""
    lo, hi = rep.interval()
    cert = None
    if certificate is not None:
        cert = {
            "status": certificate.status,
            "k": certificate.k,
            "witness": list(certificate.witness.indices) if certificate.witness else None,
            "tested": certificate.tested,
        }
    return {
        "matrix": {"rows": a.nrows, "cols": a.ncols, "field": a.field.name()},
        "k": model.k if isinstance(model, UniformSupport) else None,
        "model": model.name(),
        "trials": rep.trials,
        "seed": rep.seed,
        "rng_id": RNG_ID,
        "failures": rep.successes,
        "failure_rate": rep.estimate,
        "ci_lo": lo,
        "ci_hi": hi,
        "certificate": cert,
    }


def support_failure_expectation(a: Matrix, model, budget: int = 1 << 22) -> Fraction:
    """Exact P{dependent support} by enumeration; the oracle for the
    Monte Carlo estimate above."""
    n = a.ncols
    if isinstance(model, UniformSupport):
        k = model.k
        total = comb(n, k)
        if total > budget:
            raise EnumerationBudget(f"C({n},{k}) = {total} exceeds budget")
        bad = sum(
            1
            for sub in combinations(range(1, n + 1), k)
            if not columns_independent(a, ColumnSet(sub))
        )
        return Fraction(bad, total)
    if isinstance(model, BernoulliSupport):
        from .construction import independence_probability

        return 1 - independence_probability(a, model.q, budget)
    raise TypeError(f"unknown support model {model!r}")


# ---------------------------------------------------------------------------
# exact minimum-support recovery


@dataclass(frozen=True, eq=False)
class L0Result:
    """status: "unique" | "not_unique" | "none_found" | "budget".

    "unique" carries the recovered signal.  "not_unique" carries up to
    two minimum-size witnesses (supports with consistent solutions).
    """

    status: str
    signal: SparseSignal | None
    witnesses: tuple[ColumnSet, ...]
    tested: int


def l0_recover(a: Matrix, y, k_max: int, budget: int = 1 << 22) -> L0Result:
    """Minimum-support solution of a @ x = y by size-ascending search.

    At the first size with any consistent support, uniqueness holds
    exactly when one support matches and its columns are independent
    (a rank-deficient consistent support already implies two distinct
    solutions of that size).
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    n = a.ncols
    yv = vector(a.field, y)
    tested = 0
    for k in range(0, min(k_max, n) + 1):
        hits: list[tuple[ColumnSet, object, int]] = []
        for sub in combinations(range(1, n + 1), k):
            if tested >= budget:
                return L0Result("budget", None, (), tested)
            tested += 1
            cs = ColumnSet(sub)
            rk, consistent, x = _solve_columns(a, cs.zero_based(), yv)
            if consistent:
                hits.append((cs, x, rk))
                if len(hits) > 1:
                    break
        if not hits:
            continue
        (cs, x, rk) = hits[0]
        if len(hits) == 1 and rk == k:
            vals = tuple(x[i] for i in range(k)) if k else ()
            return L0Result(
                "unique", SparseSignal(a.field, n, cs, vals), (cs,), tested
            )
        witnesses = tuple(h[0] for h in hits)
        return L0Result("not_unique", None, witnesses, tested)
    return L0Result("none_found", None, (), tested)
