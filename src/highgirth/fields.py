"""Exact linear algebra over GF(2), odd prime fields, and the rationals.

Matrices are immutable dense row-major arrays.  GF(2) rows are stored
bit-packed into 64-bit words, and GF(2) elimination runs on rows or
columns turned into Python ints (``_gf2core``); prime-field entries are
canonical residues in [0, p); rational entries are ``fractions.Fraction``
values.  No floating point enters any rank, kernel, or solve path.

Each field checks an entry in one place, reached through ``vector``:
``_residue`` over GF(2) and GF(p), which reduces mod the field order
and refuses floats, bools and non-integer Fractions, and
``_rational_entry`` over the rationals.  Dense matrices have one
builder, ``Matrix._of``, which takes an int array of canonical entries;
``from_rows`` (rows coerced by ``vector``), ``zeros``, ``identity``,
``_transform_rows`` off GF(2) and ``read_matrix`` all build through it.

GF(p) and the rationals share one elimination loop, ``_insert``, the
twin of ``_gf2core.insert``.  It runs on columns in elimination form,
which each matrix caches: int64 residue arrays over GF(p), and over the
rationals each column times the lcm of its denominators as Python ints,
eliminated fraction-free (cross-multiply, then divide by the gcd of the
entries).  ``rank`` and ``VectorBasis`` insert plain columns;
``kernel`` and the subset solve insert them in order with combination
tags (``_echelon``), as ``_gf2core.echelon`` does, and read the
canonical kernel vectors and the free-variables-zero solution off the
tags.

Every solve is one subset solve, ``_solve_columns``: it solves on
chosen columns of a matrix, read from the matrix's cached column form
(Python ints over GF(2), elimination form otherwise), so no caller
builds a sub-matrix.  ``solve_full`` is the subset of all columns; the
erasure decoder and minimum-support recovery pass their own subsets.
A GF(2) matrix has one column form, ``Matrix._column_ints``: the
columns over the rows sorted by weight, the lightest row on the top
bit, with that row order.  Independence, kernels and solves read it,
and a solve permutes its right-hand side by the order.  GF(2)
``matvec`` reads the packed rows, and rational ``matvec`` the cached
scaled columns.

Rows of the n x n transform T (1 at (i, j) when i & ~j == 0) come from
one builder, ``_transform_rows``, over every field.  Over GF(2) it
writes each row packed, as the Kronecker product of a row of the
n/64-word transform and a 64-bit in-word pattern, so no n-wide block is
built.

A matrix made of rows of T, as every check matrix is, is recognized
from its entries by rebuilding and comparing (``Matrix._frozen_rows``):
each row's first nonzero column names the only row of T it can be, and
the builder's rows at those columns must equal the matrix.  Its kernel
is a polar code, served on T's butterfly graph (``_butterfly``, which
also holds the lane layout of blocks of words and flags).  The erasure
decoder, ``_erasure_decode``, and the independence oracle,
``_flags_independent``, are one body each over every field, on such a
block; ``codec.mec_decode`` and ``columns_independent`` are their
adapters, with one lane.

Text files are written through ``_write_text``: to a stream, or to a
path through a sibling temporary file renamed into place, created with
the mode ``open`` would give.

Index conventions: ``ColumnSet`` (and the row sets built on top of it
elsewhere) uses 1-based indices, matching the text formats this package
reads and writes.  The plain accessors ``entry``/``row``/``column`` are
0-based like any other Python sequence.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _gf2core
from ._butterfly import (
    _bit_indices,
    _bp_known,
    _flag_int,
    _gf2_transform,
    _interleave,
    _lane_copies,
    _lane_ints,
    _lane_unit,
    _lanes_any,
    _sc_decode,
    _sc_plan,
)
from ._gf2core import _bits_int, _int_bits, _nwords, _pack_rows_u8, _row_ints, _rows_packed, _unpack_bits, _xor_at

__all__ = [
    "FieldSpec",
    "Matrix",
    "ColumnSet",
    "KernelBasis",
    "SubsetSearch",
    "BitBasis",
    "VectorBasis",
    "as_fraction",
    "parse_probability",
    "rank",
    "select_columns",
    "columns_independent",
    "kernel",
    "solve",
    "solve_full",
    "matvec",
    "matmul",
    "exact_girth",
    "first_dependent_subset",
    "vandermonde",
    "read_matrix",
    "write_matrix",
    "DEFAULT_GIRTH_BUDGET",
    "EnumerationBudget",
]

DEFAULT_GIRTH_BUDGET = 1 << 22


class EnumerationBudget(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its node budget."""


GF2 = "gf2"
GFP = "gfp"
RATIONAL = "rational"

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_fraction(value, name: str = "value") -> Fraction:
    """Coerce an int, string, or Fraction to an exact Fraction.

    Floats are rejected: their binary expansions silently replace the
    number the caller meant (0.4 is not 2/5).  Pass "0.4" or "2/5".
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"{name}: expected a number, got bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(
            f"{name}: pass exact values as strings or Fractions, not floats"
        )
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{name}: cannot parse {value!r} as a rational") from exc
    raise TypeError(f"{name}: cannot interpret {type(value).__name__} as a rational")


def parse_probability(value, name: str = "p") -> Fraction:
    """Parse an exact probability in [0, 1]."""
    f = as_fraction(value, name)
    if not 0 <= f <= 1:
        raise ValueError(f"{name} must lie in [0, 1], got {f}")
    return f


def _is_prime(p: int) -> bool:
    # deterministic Miller-Rabin; the witness set covers everything < 3.2e9
    if p < 2:
        return False
    for q in (2, 3, 5, 7):
        if p % q == 0:
            return p == q
    d = p - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Identifies the coefficient field of a matrix or vector."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in (GF2, GFP, RATIONAL):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == GFP:
            if not isinstance(self.p, int) or self.p < 3:
                raise ValueError("gfp requires an odd prime p >= 3 (use gf2() for p=2)")
            if self.p >= 1 << 31:
                raise ValueError("gfp modulus must be below 2**31")
            if not _is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
        elif self.p is not None:
            raise ValueError(f"{self.kind} takes no modulus")

    @staticmethod
    def gf2() -> "FieldSpec":
        return FieldSpec(GF2)

    @staticmethod
    def gfp(p: int) -> "FieldSpec":
        if p == 2:
            return FieldSpec(GF2)
        return FieldSpec(GFP, p)

    @staticmethod
    def rational() -> "FieldSpec":
        return FieldSpec(RATIONAL)

    @property
    def order(self) -> int | None:
        """Field size, or None for the rationals."""
        if self.kind == GF2:
            return 2
        if self.kind == GFP:
            return self.p
        return None

    def name(self) -> str:
        if self.kind == GFP:
            return f"gfp:{self.p}"
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        text = text.strip()
        if text == GF2:
            return cls.gf2()
        if text == RATIONAL:
            return cls.rational()
        if text.startswith("gfp:"):
            try:
                p = int(text[4:])
            except ValueError as exc:
                raise ValueError(f"bad field name {text!r}") from exc
            return cls.gfp(p)
        raise ValueError(f"bad field name {text!r} (want gf2, gfp:<p>, or rational)")

    def __str__(self) -> str:
        return self.name()


@dataclass(frozen=True)
class ColumnSet:
    """Sorted set of 1-based column indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        prev = 0
        for i in self.indices:
            if not isinstance(i, int) or isinstance(i, bool):
                raise ValueError(f"column index {i!r} is not an int")
            if i <= prev:
                raise ValueError("column indices must be >= 1, sorted, and distinct")
            prev = i

    @classmethod
    def of(cls, items) -> "ColumnSet":
        return cls(tuple(sorted({int(i) for i in items})))

    @classmethod
    def empty(cls) -> "ColumnSet":
        return cls(())

    @classmethod
    def full(cls, n: int) -> "ColumnSet":
        return cls(tuple(range(1, n + 1)))

    def zero_based(self) -> tuple[int, ...]:
        return tuple(i - 1 for i in self.indices)

    def complement(self, n: int) -> "ColumnSet":
        inside = set(self.indices)
        return ColumnSet(tuple(i for i in range(1, n + 1) if i not in inside))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, i) -> bool:
        return i in self.indices


def _as_column_set(cols, ncols: int, name: str = "columns") -> ColumnSet:
    if not isinstance(cols, ColumnSet):
        cols = ColumnSet.of(cols)
    if cols.indices and cols.indices[-1] > ncols:
        raise ValueError(
            f"{name}: index {cols.indices[-1]} out of range for {ncols} columns"
        )
    return cols


@dataclass(frozen=True, eq=False)
class KernelBasis:
    """Basis of the right kernel: vectors v with M @ v = 0."""

    field: FieldSpec
    n: int
    vectors: tuple

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)


# ---------------------------------------------------------------------------
# entry coercion: the one check per field, called through ``vector``


def _residue(v, q: int) -> int:
    """A GF(2) or GF(p) entry as its residue in [0, q)."""
    if isinstance(v, Fraction):
        if v.denominator != 1:
            raise ValueError(f"{v} is not an integer residue")
        v = v.numerator
    if isinstance(v, (bool, float, np.floating)):
        raise TypeError(f"bad GF({q}) element {v!r}")
    return int(v) % q


def _rational_entry(v) -> Fraction:
    if isinstance(v, float):
        raise TypeError("pass rational entries as Fraction, int, or 'a/b' string")
    f = Fraction(v)
    # 0 and 1 are shared objects, so 0/1 matrices compare entries by identity
    return _ZERO if not f else _ONE if f == 1 else f


# ---------------------------------------------------------------------------
# the matrix type


class Matrix:
    """Immutable dense matrix over gf2, gfp:<p>, or the rationals.

    Construct with ``from_rows``/``from_columns``/``zeros``/``identity``.
    Entries are canonicalized on ingest (ints are reduced mod 2 or mod p;
    rationals accept ints, Fractions, and 'a/b' strings).
    """

    __slots__ = ("field", "nrows", "ncols", "_data", "_cache")

    def __init__(self, field: FieldSpec, nrows: int, ncols: int, data, _trusted=False):
        if not _trusted:
            raise TypeError("use Matrix.from_rows / zeros / identity")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._data = data
        self._cache = {}

    # -- construction -------------------------------------------------

    @classmethod
    def _new(cls, field, nrows, ncols, data) -> "Matrix":
        if isinstance(data, np.ndarray):
            data.setflags(write=False)
        return cls(field, nrows, ncols, data, _trusted=True)

    @classmethod
    def _of(cls, field: FieldSpec, arr: np.ndarray) -> "Matrix":
        """The matrix of a 2-D int array of canonical entries: residues
        over GF(2) and GF(p), integers over the rationals."""
        nrows, ncols = arr.shape
        if field.kind == GF2:
            return cls._new(field, nrows, ncols, _pack_rows_u8(arr))
        if field.kind == GFP:
            return cls._new(field, nrows, ncols, arr.astype(np.int64, copy=False))
        # each distinct int becomes its entry once, so 0 and 1 stay _ZERO and _ONE
        entry = {v: _rational_entry(v) for v in np.unique(arr).tolist()}.__getitem__
        return cls._new(field, nrows, ncols, tuple(tuple(map(entry, r)) for r in arr.tolist()))

    @classmethod
    def from_rows(cls, field: FieldSpec, rows) -> "Matrix":
        rows = [vector(field, r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        if field.kind == RATIONAL:
            return cls._new(field, len(rows), ncols, tuple(map(tuple, rows)))
        return cls._of(field, np.array(rows, np.int64).reshape(len(rows), ncols))

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        return cls._of(field, np.zeros((nrows, ncols), np.uint8))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        return cls._of(field, np.eye(n, dtype=np.uint8))

    @classmethod
    def from_columns(cls, field: FieldSpec, columns, nrows: int | None = None) -> "Matrix":
        cols = [list(c) for c in columns]
        if nrows is None:
            if not cols:
                raise ValueError("from_columns with no columns needs nrows")
            nrows = len(cols[0])
        for c in cols:
            if len(c) != nrows:
                raise ValueError("ragged columns")
        if not cols or not nrows:
            return cls.zeros(field, nrows, len(cols))
        return cls.from_rows(field, [[c[i] for c in cols] for i in range(nrows)])

    # -- accessors ----------------------------------------------------

    @property
    def packed(self) -> np.ndarray:
        """Bit-packed rows (gf2 only)."""
        if self.field.kind != GF2:
            raise ValueError("packed form exists only over gf2")
        return self._data

    def entry(self, i: int, j: int):
        """0-based element access."""
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError("matrix index out of range")
        if self.field.kind == GF2:
            return int((self._data[i, j >> 6] >> np.uint64(j & 63)) & np.uint64(1))
        if self.field.kind == GFP:
            return int(self._data[i, j])
        return self._data[i][j]

    def row(self, i: int):
        """0-based row as a field vector."""
        if not 0 <= i < self.nrows:
            raise IndexError("row index out of range")
        if self.field.kind == GF2:
            return _unpack_bits(self._data[i : i + 1], self.ncols)[0]
        if self.field.kind == GFP:
            return self._data[i].copy()
        return list(self._data[i])

    def column(self, j: int):
        """0-based column as a field vector."""
        if not 0 <= j < self.ncols:
            raise IndexError("column index out of range")
        if self.field.kind == GF2:
            return ((self._data[:, j >> 6] >> np.uint64(j & 63)) & np.uint64(1)).astype(np.uint8)
        if self.field.kind == GFP:
            return self._data[:, j].copy()
        return [r[j] for r in self._data]

    def to_rows(self) -> list[list]:
        """Dense row-major copy with plain int / Fraction entries."""
        if self.field.kind == GF2:
            return _unpack_bits(self._data, self.ncols).astype(int).tolist()
        if self.field.kind == GFP:
            return self._data.astype(int).tolist()
        return [list(r) for r in self._data]

    # -- internal caches ----------------------------------------------

    def _column_ints(self) -> tuple[np.ndarray, list[int]]:
        """The columns as nrows-bit integers (gf2) over the rows sorted by
        weight, with that order: (order, ints), bit i of each int being
        row order[i], the lightest row on the top bit (ties in row order).

        ``_gf2core.insert`` reduces from the top bit down, and a light
        row is set in few columns, so a high pivot is rarely hit.  Rank,
        independence, the kernel relations and the pivot-supported
        solution do not depend on the row order; a right-hand side is
        read through ``order``.  Cached.
        """
        ci = self._cache.get("colints")
        if ci is None:
            weight = np.bitwise_count(self._data).sum(axis=1, dtype=np.int64)
            order = np.argsort(-weight, kind="stable")
            ints = _row_ints(_pack_rows_u8(_unpack_bits(self._data[order], self.ncols).T))
            ci = self._cache["colints"] = (order, ints)
        return ci

    def _column_vectors(self) -> tuple[list, list[int]]:
        """Columns in elimination form, with their scales (gfp, rational).

        Over GF(p) each column is a read-only int64 array; over the
        rationals it is the column times its scale, the lcm of its
        denominators, as a list of ints.  Cached.
        """
        cv = self._cache.get("colvecs")
        if cv is None:
            if self.field.kind == GFP:
                cols = np.ascontiguousarray(self._data.T)
                cols.setflags(write=False)
                cv = (list(cols), [1] * self.ncols)
            else:
                cv = _scaled_vectors([r[j] for r in self._data] for j in range(self.ncols))
            self._cache["colvecs"] = cv
        return cv

    def _row_vectors(self) -> tuple[list[list[int]], list[int]]:
        """Rows times their scales as ints, with the scales (rational). Cached."""
        rv = self._cache.get("rowvecs")
        if rv is None:
            rv = self._cache["rowvecs"] = _scaled_vectors(self._data)
        return rv

    def _frozen_rows(self) -> int | None:
        """The transform rows this matrix is made of, as a mask, or None.

        Each row's first nonzero column names the only transform row it
        can be, and bit i of the mask is set when some row leads at i.
        The mask is the answer exactly when the matrix equals the
        builder's rows at those leads (``_transform_rows``); None for a
        zero row, when ncols is not a power of two, or when any entry
        differs.  Read from the entries, never assumed.  Cached.
        """
        if "frozen" not in self._cache:
            n, frozen = self.ncols, None
            if n and not n & (n - 1):
                if self.field.kind == GF2:
                    leads = [(r & -r).bit_length() - 1 if r else None for r in _row_ints(self._data)]
                else:
                    leads = [_lead(r, 0, n) for r in self._data]
                if None not in leads and self == _transform_rows(self.field, n, leads):
                    frozen = sum(1 << i for i in set(leads))
            self._cache["frozen"] = frozen
        return self._cache["frozen"]

    # -- dunder -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        if self.field.kind == RATIONAL:
            return self._data == other._data
        return bool(np.array_equal(self._data, other._data))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Matrix({self.field.name()}, {self.nrows}x{self.ncols})"


# ---------------------------------------------------------------------------
# vectors


def vector(field: FieldSpec, values):
    """Coerce a sequence to the canonical vector type for the field."""
    if (
        field.kind == GF2
        and isinstance(values, np.ndarray)
        and values.ndim == 1
        and values.dtype.kind in "biu"
    ):
        return (values & 1).astype(np.uint8)
    if field.kind == GFP and isinstance(values, np.ndarray) and values.dtype == np.int64:
        return values % field.p
    q = field.order
    if q is None:
        return [_rational_entry(v) for v in values]
    return np.array([_residue(v, q) for v in values], np.uint8 if q == 2 else np.int64)


def zero_vector(field: FieldSpec, n: int):
    if field.kind == GF2:
        return np.zeros(n, np.uint8)
    if field.kind == GFP:
        return np.zeros(n, np.int64)
    return [_ZERO] * n


def vectors_equal(a, b) -> bool:
    """Entrywise equality; GF(2) words may also be ints (bit j = entry j)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(np.asarray(a), np.asarray(b)))
    return a == b if isinstance(a, int) else list(a) == list(b)


def negate_vector(field: FieldSpec, v):
    if field.kind == GF2:
        return np.asarray(v, np.uint8).copy()
    if field.kind == GFP:
        return (-np.asarray(v, np.int64)) % field.p
    return [-x for x in v]


# ---------------------------------------------------------------------------
# elimination over gfp / rationals


def _scaled(fractions) -> tuple[list[int], int]:
    """Rationals times the lcm d of their denominators, as ints, and d.

    Scaling a column by a nonzero integer changes neither which columns
    are independent nor the pivots.
    """
    fr = list(fractions)
    d = math.lcm(*(f.denominator for f in fr))
    return [f.numerator * (d // f.denominator) for f in fr], d


def _scaled_vectors(vectors) -> tuple[list[list[int]], list[int]]:
    """``_scaled`` of each vector: the int vectors, and their scales."""
    scaled = [_scaled(v) for v in vectors]
    return [v for v, _ in scaled], [d for _, d in scaled]


def _scaled_sum(vecs, scales, coeffs, size: int) -> list[Fraction]:
    """The sum of coeffs[j] * vecs[j] / scales[j] over the rationals.

    The vectors are ints over their scales (``_scaled_vectors``), so the
    sum runs on ints over one common denominator and divides once.
    """
    terms = [(v, c / d) for v, d, c in zip(vecs, scales, coeffs) if c]
    den = math.lcm(*(c.denominator for _, c in terms))
    acc = [0] * size
    for v, c in terms:
        k = c.numerator * (den // c.denominator)
        acc = [a + k * b for a, b in zip(acc, v)]
    return [Fraction(a, den) for a in acc]


def _native(field: FieldSpec, values) -> tuple[object, int]:
    """A gfp or rational vector in elimination form, and its scale."""
    if field.kind == RATIONAL:
        values = list(values)
        if all(type(v) is int for v in values):
            return values, 1
    return _elimination_form(field, vector(field, values))


def _elimination_form(field: FieldSpec, v) -> tuple[object, int]:
    """``_native`` of a vector that is already canonical (``vector``)."""
    return (v, 1) if field.kind == GFP else _scaled(v)


def _lead(v, lo: int, hi: int) -> int | None:
    """Index of the first nonzero entry of v[lo:hi], or None."""
    if isinstance(v, np.ndarray):
        nz = v[lo:hi].nonzero()[0]
        return lo + int(nz[0]) if nz.size else None
    return next((i for i in range(lo, hi) if v[i]), None)


def _insert(basis: dict, v, floor: int, p: int | None):
    """Reduce ``v`` against ``basis`` on its entries below ``floor``.

    The gfp/rational twin of ``_gf2core.insert``, with ``basis`` keyed
    by each vector's first nonzero entry.  Returns None when an entry
    below ``floor`` survives, after adding the reduced vector to
    ``basis``; otherwise returns the remainder, zero below ``floor``.

    Over GF(p) (``p`` set) vectors are int64 residues, stored scaled to
    lead with 1; every product stays below p**2 < 2**62.  Over the
    rationals (``p`` None) they are lists of ints: the lead entry is
    cleared by cross-multiplying and the result divided by the gcd of
    its entries.  No vector is modified in place, so bases can share
    stored vectors and callers' vectors.
    """
    j = _lead(v, 0, floor)
    while j is not None:
        row = basis.get(j)
        if row is None:
            basis[j] = v * pow(int(v[j]), p - 2, p) % p if p else v
            return None
        if p:
            v = (v - v[j] * row) % p
        else:
            a, b = row[j], v[j]
            v = [a * x - b * y for x, y in zip(v, row)]
            g = math.gcd(*v)
            if g > 1:
                v = [x // g for x in v]
        j = _lead(v, j + 1, floor)
    return v


def _echelon(field: FieldSpec, columns: list, scales: list[int], nrows: int):
    """Insert ``columns`` (elimination form, ``nrows`` entries) in order.

    Column j carries a tag of len(columns) more entries holding its
    scale at entry j, so every vector's tag is the combination of the
    input columns that its first ``nrows`` entries equal.  A column is a
    pivot exactly when it is independent of the columns before it, and
    then only pivots enter the basis, so a dependent column f's tag is
    supported on f and the pivots before it.  Scaled to 1 at f, it is
    f's canonical kernel vector whatever the order inside elimination.

    Returns (pivots, relations): the pivots ascending, and one such
    kernel vector per other column, in order (int64 residues over
    GF(p), lists of Fractions over the rationals).
    """
    k = len(columns)
    p = field.p
    basis: dict = {}
    pivots, relations = [], []
    for j, (c, d) in enumerate(zip(columns, scales)):
        if p:
            v = np.zeros(nrows + k, np.int64)
            v[:nrows] = c
        else:
            v = list(c) + [0] * k
        v[nrows + j] = d
        rest = _insert(basis, v, nrows, p)
        if rest is None:
            pivots.append(j)
            continue
        tag, lead = rest[nrows:], rest[nrows + j]
        if p:
            relations.append(tag * pow(int(lead), p - 2, p) % p)
        else:
            relations.append([Fraction(x, lead) if x else _ZERO for x in tag])
    return pivots, relations


# ---------------------------------------------------------------------------
# rows of the n x n transform, T[i, j] = 1 when i & ~j == 0

# row r of the 64 x 64 transform as one packed word, for r = 0, ..., 63
_WORD_ROWS = _pack_rows_u8((np.arange(64)[:, None] & ~np.arange(64)) == 0)[:, 0]


def _transform_rows(field: FieldSpec, n: int, idx) -> Matrix:
    """Rows ``idx`` (0-based, in the given order, repeats allowed) of T.

    The only code that writes a transform row.  With i = 64u + r and
    j = 64w + b, i & ~j == 0 exactly when u & ~w == 0 and r & ~b == 0,
    so T is the Kronecker product of the n/64-word transform and the
    64 x 64 one: over GF(2), word w of row i is ``_WORD_ROWS[i & 63]``
    when (i >> 6) & ~w == 0 and 0 otherwise, and no n-wide block is
    built.  Other fields take the dense 0/1 block.
    """
    idx = np.asarray(idx, np.int64).reshape(-1)
    if field.kind == GF2:
        word = _WORD_ROWS[idx & 63] & np.uint64((1 << min(n, 64)) - 1)
        on = ((idx >> 6)[:, None] & ~np.arange(_nwords(n))) == 0
        return Matrix._new(field, len(idx), n, np.where(on, word[:, None], np.uint64(0)))
    return Matrix._of(field, ((idx[:, None] & ~np.arange(n)) == 0).astype(np.uint8))


# ---------------------------------------------------------------------------
# rank / kernel / solve


def rank(m: Matrix) -> int:
    """Matrix rank over its own field."""
    if m.field.kind == GF2:
        return _gf2core.rank_packed(_row_ints(m._data))
    basis: dict = {}
    for v in m._column_vectors()[0]:
        if len(basis) == m.nrows:
            break
        _insert(basis, v, m.nrows, m.field.p)
    return len(basis)


def select_columns(m: Matrix, cols) -> Matrix:
    """Submatrix of the 1-based columns in ``cols`` (order: sorted)."""
    cs = _as_column_set(cols, m.ncols)
    idx = list(cs.zero_based())
    if m.field.kind == GF2:
        dense = _unpack_bits(m._data, m.ncols)
        return Matrix._new(m.field, m.nrows, len(idx), _pack_rows_u8(dense[:, idx]))
    if m.field.kind == GFP:
        return Matrix._new(m.field, m.nrows, len(idx), m._data[:, idx].copy())
    rows = tuple(tuple(r[j] for j in idx) for r in m._data)
    return Matrix._new(m.field, m.nrows, len(idx), rows)


def columns_independent(m: Matrix, cols) -> bool:
    """Whether the selected columns are linearly independent
    (``_flags_independent`` on their flag int, one lane)."""
    cs = _as_column_set(cols, m.ncols)
    return _flags_independent(m, _flag_int(cs.indices, m.ncols), 1) == 1


def _flags_independent(m: Matrix, f: int, lanes: int) -> int:
    """The lanes t of the block of flag ints ``f`` (coordinate j of lane
    t at bit j * lanes + t) whose flagged columns of m are independent,
    as a mask with bit t for lane t.

    The one oracle body, over every field.  When m is made of transform
    rows (``Matrix._frozen_rows``), peeling on the butterfly graph
    (``_bp_known``) first determines what it can of a kernel vector that
    is zero off the set, and every such value is zero.  So the set is
    independent exactly when its columns that peeling leaves open are,
    and elimination runs on those alone.  Every lane is peeled at once;
    a set of more than nrows columns is dependent and is cleared from
    the block first.  Other matrices eliminate each whole set.
    """
    n, unit = m.ncols, _lane_unit(m.ncols, lanes)
    fit = sum(((f & unit << t).bit_count() <= m.nrows) << t for t in range(lanes))
    frozen = m._frozen_rows()
    if frozen is not None:
        f &= unit * fit
        f &= ~_bp_known(f, frozen, n, lanes)
    left = _lanes_any(f, n, lanes) & fit
    out = fit & ~left
    if left:
        make_basis, vecs = independence_tracker(m)
        for t, g in enumerate(_lane_ints(f, n, lanes)):
            if left >> t & 1:
                residue = [vecs[j] for j in _bit_indices(g, n)]
                out |= (make_basis().insert_prefix(residue) == len(residue)) << t
    return out


def kernel(m: Matrix) -> KernelBasis:
    """Basis of {v : m @ v = 0}; one vector per free column.

    The vector of free column f is 1 at f, 0 at the other free columns
    and supported on the pivots before f (pivots: the columns
    independent of the columns before them).
    """
    gen, _ = _generator(m)
    return KernelBasis(m.field, m.ncols, tuple(map(gen.row, range(gen.nrows))))


def _generator(m: Matrix) -> tuple[Matrix, tuple[int, ...] | None]:
    """The vectors of ``kernel(m)`` as the rows of a matrix, and over
    GF(2) also as ints (bit j = entry j), read straight off the
    elimination's relations."""
    n = m.ncols
    if m.field.kind == GF2:
        _, relations, _ = _gf2core.echelon(m._column_ints()[1])
        return Matrix._new(m.field, len(relations), n, _rows_packed(relations, n)), tuple(relations)
    _, relations = _echelon(m.field, *m._column_vectors(), m.nrows)
    if m.field.kind == GFP:
        data = np.array(relations, np.int64).reshape(len(relations), n)
    else:
        data = tuple(map(tuple, relations))
    return Matrix._new(m.field, len(relations), n, data), None


def _solve_columns(m: Matrix, idx, y):
    """Solve sum of x[i] * column idx[i] of m = y, free variables zero.

    ``idx`` holds 0-based column indices.  The columns are read from m's
    cache, so no sub-matrix is built: over GF(2) the one column form
    ``_column_ints``, with y read in its row order, otherwise
    ``_column_vectors``.  Returns (rank, consistent, x) with x of length
    len(idx), or None when the system is inconsistent.
    """
    idx = list(idx)
    if m.field.kind == GF2:
        yv = vector(m.field, y)
        if yv.shape[0] != m.nrows:
            raise ValueError("rhs length does not match nrows")
        order, cols = m._column_ints()
        rk, ok, x = _gf2core.solve_packed([cols[j] for j in idx], _bits_int(yv[order]), m.nrows)
        return rk, ok, (_int_bits(x, len(idx)) if ok else None)
    return _solve_native(m, idx, *_native(m.field, y))


def _solve_native(m: Matrix, idx: list[int], yv, d: int):
    """``_solve_columns`` over GF(p) or the rationals, with y in
    elimination form (``_native``) at scale d."""
    k = len(idx)
    if len(yv) != m.nrows:
        raise ValueError("rhs length does not match nrows")
    # y goes in as one more column: the system is consistent exactly when
    # y is no pivot, and then y's relation y + sum of r_i * column idx[i] = 0
    # gives x = -r
    vecs, scales = m._column_vectors()
    pivots, relations = _echelon(
        m.field, [vecs[j] for j in idx] + [yv], [scales[j] for j in idx] + [d], m.nrows
    )
    if pivots and pivots[-1] == k:
        return len(pivots) - 1, False, None
    return len(pivots), True, negate_vector(m.field, relations[-1][:k])


def _erasure_decode(m: Matrix, y, f: int, lanes: int) -> tuple[list[str], object]:
    """Fill the flagged coordinates of a block of received words: the one
    body of erasure decoding, over every field.

    ``f`` flags each lane's erased coordinates (coordinate j of lane t at
    bit j * lanes + t).  ``y`` holds the lanes' words in the field's own
    form: over GF(2) one int in the same layout, otherwise a sequence of
    ``lanes`` words (int64 residue arrays over GF(p), lists over the
    rationals).  Whatever the flagged slots hold is ignored, and ``y``
    itself is not modified.  Returns (each lane's status, as in
    ``codec.DecodeResult``; the codewords): over GF(2) one int in the
    lane layout, zero in every lane that is not decoded, otherwise a
    list with None for those lanes.

    Over GF(2), when m is made of transform rows, successive cancellation
    (``_sc_decode``) proposes every lane's c in one pass, and a lane's c
    is taken only when it agrees with y off f and T c is zero on the
    frozen rows: SC returns a word only when every erased leaf is
    frozen, so the flagged columns are independent and c is the one
    completion.  The lanes it rejects, and every lane of any other
    matrix, are solved one by one (``_fill``).
    """
    n = m.ncols
    if m.field.kind != GF2:
        fs = _lane_ints(f, n, lanes)
        out = [_fill(m, word, _bit_indices(g, n)) for word, g in zip(y, fs)]
        return [status for status, _ in out], [word for _, word in out]
    y &= ~f
    frozen = m._frozen_rows()
    if frozen is None:
        c, bad = 0, (1 << lanes) - 1
    else:
        c, bad = _sc_decode(y, f, _sc_plan(frozen, n, lanes))
        wrong = (c ^ y) & ~f | _gf2_transform(c, n, lanes) & _lane_copies(frozen, n, lanes)
        bad |= _lanes_any(wrong, n, lanes)
    statuses = ["decoded"] * lanes
    if bad:
        ys, fs, cs = (_lane_ints(v, n, lanes) for v in (y, f, c))
        for t in range(lanes):
            if bad >> t & 1:
                statuses[t], word = _fill(m, ys[t], _bit_indices(fs[t], n))
                cs[t] = word or 0
        c = _interleave(cs, n)
    return statuses, c


def _fill(m: Matrix, y, idx: list[int]) -> tuple[str, object]:
    """Solve for the coordinates ``idx`` of one received word from its
    syndrome on m's cached columns: over GF(2) with y an int that is zero
    on idx (``_gf2core.solve_packed`` on the one column form
    ``_column_ints``, the syndrome summed in its row order), otherwise
    with the idx slots of a copy of y zeroed (``_solve_native``).
    Returns (status, codeword in y's form, or None)."""
    gf2 = m.field.kind == GF2
    if gf2:  # the syndrome is the XOR of the cached columns at y's bits
        cols = m._column_ints()[1]
        rk, ok, x = _gf2core.solve_packed([cols[j] for j in idx], _xor_at(cols, _int_bits(y, m.ncols)), m.nrows)
    else:
        # y is canonical, so its copy goes through no entry check
        y = y.copy() if isinstance(y, np.ndarray) else list(y)
        _put(y, idx, zero_vector(m.field, len(idx)))
        s = negate_vector(m.field, _matvec(m, y))
        rk, ok, x = _solve_native(m, idx, *_elimination_form(m.field, s))
    if not ok:
        return "inconsistent", None
    if rk < len(idx):
        return "ambiguous", None
    if gf2:
        return "decoded", y | sum(1 << j for i, j in enumerate(idx) if x >> i & 1)
    _put(y, idx, x)
    return "decoded", y


def _put(word, idx: list[int], values) -> None:
    """word[i] = v for i, v in zip(idx, values), on an array or a list."""
    if isinstance(word, np.ndarray):
        word[idx] = values
    else:
        for pos, val in zip(idx, values):
            word[pos] = val


def solve_full(m: Matrix, y):
    """Solve m @ x = y with free variables set to zero.

    Returns (rank, consistent, x) where x is None when inconsistent.
    The solution is unique exactly when consistent and rank == ncols.
    """
    return _solve_columns(m, range(m.ncols), y)


def solve(m: Matrix, y):
    """Some x with m @ x = y, or None when the system is inconsistent."""
    _, ok, x = solve_full(m, y)
    return x if ok else None


def matvec(m: Matrix, x):
    """Matrix-vector product over the matrix field."""
    xv = vector(m.field, x)
    if len(xv) != m.ncols:
        raise ValueError("vector length does not match ncols")
    return _matvec(m, xv)


def _matvec(m: Matrix, xv):
    """``matvec`` of a canonical vector of length ncols."""
    if m.field.kind == GF2:
        # the parity of each packed row's AND with x
        ones = np.bitwise_count(m._data & _pack_rows_u8(xv[None, :])).sum(axis=1, dtype=np.int64)
        return (ones & 1).astype(np.uint8)
    if m.field.kind == GFP:
        out = np.zeros(m.nrows, np.int64)
        p = m.field.p
        step = max(1, (1 << 21) // max(1, m.ncols))
        for lo in range(0, m.nrows, step):
            hi = min(m.nrows, lo + step)
            out[lo:hi] = (m._data[lo:hi] * xv[None, :] % p).sum(axis=1) % p
        return out
    return _scaled_sum(*m._column_vectors(), xv, m.nrows)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product a @ b (both over the same field)."""
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.ncols != b.nrows:
        raise ValueError("inner dimensions do not match")
    cols = [matvec(a, b.column(j)) for j in range(b.ncols)]
    if not cols:
        return Matrix.zeros(a.field, a.nrows, 0)
    return Matrix.from_columns(a.field, cols, a.nrows)


# ---------------------------------------------------------------------------
# incremental independence trackers


class BitBasis:
    """Incremental GF(2) span tracker over int bitmasks: a ``_gf2core``
    pivot table, grown to fit the longest vector so far, and its rank."""

    __slots__ = ("_piv", "_rank")

    def __init__(self):
        self._piv, self._rank = [None], 0

    def insert(self, v: int) -> bool:
        """Add a vector; True when it was independent of the span so far."""
        return self.insert_prefix([v]) == 1

    def insert_prefix(self, vectors) -> int:
        """Insert a sequence of vectors in order, up to the first one
        dependent on the span so far; returns how many went in."""
        self._piv += [None] * (max(vectors, default=0).bit_length() + 1 - len(self._piv))
        insert, piv = _gf2core.insert, self._piv
        count = next((i for i, v in enumerate(vectors) if insert(piv, v) is not None), len(vectors))
        self._rank += count
        return count

    def copy(self) -> "BitBasis":
        """Independent tracker with the same span."""
        other = BitBasis()
        other._piv, other._rank = self._piv.copy(), self._rank
        return other

    def __len__(self) -> int:
        return self._rank


class VectorBasis:
    """Incremental span tracker over GF(p) or rational vectors."""

    __slots__ = ("_field", "_piv")

    def __init__(self, field: FieldSpec):
        if field.kind == GF2:
            raise ValueError("use BitBasis over gf2")
        self._field = field
        self._piv = {}

    def insert(self, vec) -> bool:
        """Add a vector; True when it was independent of the span so far."""
        v, _ = _native(self._field, vec)
        return _insert(self._piv, v, len(v), self._field.p) is None

    def insert_prefix(self, vectors) -> int:
        """Insert vectors in order, up to the first one dependent on the
        span so far; returns how many went in."""
        return next((i for i, vec in enumerate(vectors) if not self.insert(vec)), len(vectors))

    def copy(self) -> "VectorBasis":
        """Independent tracker with the same span (stored vectors are
        never modified, so they are shared)."""
        other = VectorBasis(self._field)
        other._piv = self._piv.copy()
        return other

    def __len__(self) -> int:
        return len(self._piv)


def independence_tracker(m: Matrix):
    """Tracker plus per-column vectors for subset dependence tests: over
    GF(2) the one column form, ``Matrix._column_ints`` (rows sorted by
    weight)."""
    if m.field.kind == GF2:
        return BitBasis, m._column_ints()[1]
    return (lambda: VectorBasis(m.field)), m._column_vectors()[0]


# ---------------------------------------------------------------------------
# girth


@dataclass(frozen=True)
class SubsetSearch:
    """Outcome of a bounded search for a dependent column subset."""

    status: str  # "found" | "independent" | "budget"
    witness: ColumnSet | None
    tested: int


def first_dependent_subset(m: Matrix, max_size: int, budget: int = DEFAULT_GIRTH_BUDGET) -> SubsetSearch:
    """Smallest dependent column subset with size <= max_size, by enumeration.

    Subsets are tested in lexicographic order within each size, sizes
    ascending, so a "found" witness has minimal size.  ``budget`` caps the
    number of subset tests.
    """
    n = m.ncols
    r = rank(m)
    cap = min(max_size, n, r + 1)
    make_basis, cols = independence_tracker(m)
    tested = 0
    for k in range(1, cap + 1):
        for combo in itertools.combinations(range(n), k):
            if tested >= budget:
                return SubsetSearch("budget", None, tested)
            tested += 1
            if make_basis().insert_prefix([cols[j] for j in combo]) < k:
                return SubsetSearch("found", ColumnSet(tuple(c + 1 for c in combo)), tested)
    return SubsetSearch("independent", None, tested)


def exact_girth(m: Matrix, budget: int = DEFAULT_GIRTH_BUDGET) -> int | None:
    """Size of the smallest dependent column subset.

    Returns ncols + 1 when every subset is independent (then the matrix
    has full column rank), or None when the enumeration budget runs out.
    """
    res = first_dependent_subset(m, m.ncols, budget)
    if res.status == "found":
        return len(res.witness)
    if res.status == "independent":
        return m.ncols + 1
    return None


# ---------------------------------------------------------------------------
# structured constructions


def vandermonde(field: FieldSpec, m: int, nodes) -> Matrix:
    """Rows node**0 .. node**(m-1) over distinct nodes."""
    if m < 1:
        raise ValueError("need at least one row")
    q = field.order
    x = vector(field, nodes)
    x = x.tolist() if q else x
    if len(set(x)) != len(x):
        raise ValueError("nodes must be distinct in the field")
    rows = [[1] * len(x)]
    for _ in range(m - 1):
        rows.append([r * v % q if q else r * v for r, v in zip(rows[-1], x)])
    return Matrix.from_rows(field, rows)


# ---------------------------------------------------------------------------
# text format: "<nrows> <ncols> <field>" then one whitespace-separated row
# per line; rational entries as a/b or plain integers


def _write_text(target, text: str) -> None:
    """Write ``text`` to a stream, or to a path atomically.

    A path gets a sibling temporary file, created as ``open`` would
    create it (mode 0o666 less the umask) and renamed over the path, so
    a reader sees the old file or the new one, never a part; the
    temporary file is removed when anything fails, and an OSError names
    the path, not the temporary file.
    """
    if hasattr(target, "write"):
        target.write(text)
        return
    path = os.path.abspath(target)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}")
    fd = None
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if fd is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, os.fspath(target)) from exc
        raise


def _read_text(source) -> str:
    """The text of a stream or of a path."""
    if hasattr(source, "read"):
        return source.read()
    with open(source, "r", encoding="ascii") as fh:
        return fh.read()


def write_matrix(m: Matrix, target) -> None:
    lines = [f"{m.nrows} {m.ncols} {m.field.name()}"]
    for row in m.to_rows():
        lines.append(" ".join(str(v) for v in row))
    _write_text(target, "\n".join(lines) + "\n")


def read_matrix(source) -> Matrix:
    text = _read_text(source).splitlines()
    lines = [(i, ln) for i, ln in enumerate(text, 1) if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    head = lines[0][1].split()
    if len(head) != 3:
        raise ValueError("header must be '<nrows> <ncols> <field>'")
    try:
        nrows, ncols = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError("bad dimensions in header") from exc
    if nrows < 0 or ncols < 0:
        raise ValueError("dimensions must be nonnegative")
    field = FieldSpec.parse(head[2])
    body = lines[1:]
    if not ncols and not body:  # rows without entries are the blank lines after the header
        body = [(0, "")] * min(nrows, len(text) - lines[0][0])
    if len(body) != nrows:
        raise ValueError(f"expected {nrows} rows, found {len(body)}")
    q = field.order
    if q is None:
        # each distinct token is parsed once, straight to the canonical entry
        seen: dict[str, Fraction] = {}

        def parse(t):
            v = seen.get(t)
            if v is None:
                v = seen[t] = _rational_entry(t)
            return v
    else:
        def parse(t):
            return int(t) % q
    rows = []
    for lineno, ln in body:
        toks = ln.split()
        if len(toks) != ncols:
            raise ValueError(f"line {lineno}: expected {ncols} entries, found {len(toks)}")
        try:
            rows.append([parse(t) for t in toks])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: bad {field} entry ({exc})") from exc
    if q is None:
        return Matrix._new(field, nrows, ncols, tuple(map(tuple, rows)))
    return Matrix._of(field, np.array(rows, np.int64).reshape(nrows, ncols))
