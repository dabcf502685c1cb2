"""Exact linear algebra over GF(2), odd prime fields, and the rationals.

Matrices are immutable dense row-major arrays.  GF(2) rows are stored
bit-packed into 64-bit words, and GF(2) elimination runs on rows or
columns turned into Python ints (``_gf2core``); prime-field entries are
canonical residues in [0, p); rational entries are ``fractions.Fraction``
values.  No floating point enters any rank, kernel, or solve path.

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
GF(2) ``matvec`` reads the same cached column ints, and rational
``matvec`` the cached scaled columns.

Rows of the n x n transform T (1 at (i, j) when i & ~j == 0) come from
one builder, ``_transform_rows``, over every field.  Over GF(2) it
writes each row packed, as the Kronecker product of a row of the
n/64-word transform and a 64-bit in-word pattern, so no n-wide block is
built.

``columns_independent`` first tries a certificate.  A matrix made of
rows of T, as every check matrix is, is recognized from its entries by
rebuilding and comparing (``Matrix._frozen_rows``): each row's first
nonzero column names the only row of T it can be, and the builder's rows
at those columns must equal the matrix.  Its kernel is the polar code
with those rows frozen.  When successive-cancellation erasure decoding
of that code succeeds on the selected columns (``_sc_leaves``, flags
only, the same over every field), they are independent; elimination
decides every other case.

Text files are written through ``_write_text``: to a stream, or to a
path through a sibling temporary file renamed into place, created with
the mode ``open`` would give.

Index conventions: ``ColumnSet`` (and the row sets built on top of it
elsewhere) uses 1-based indices, matching the text formats this package
reads and writes.  The plain accessors ``entry``/``row``/``column`` are
0-based like any other Python sequence.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _gf2core

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
# entry coercion for the non-GF(2) fields


def _gfp_entry(v, p: int) -> int:
    if isinstance(v, Fraction):
        if v.denominator != 1:
            raise ValueError(f"{v} is not an integer residue")
        v = v.numerator
    if isinstance(v, (bool, float)):
        raise TypeError(f"bad prime-field element {v!r}")
    return int(v) % p


def _rational_entry(v) -> Fraction:
    if isinstance(v, float):
        raise TypeError("pass rational entries as Fraction, int, or 'a/b' string")
    f = Fraction(v)
    # 0 and 1 are shared objects, so 0/1 matrices compare entries by identity
    return _ZERO if not f else _ONE if f == 1 else f


# ---------------------------------------------------------------------------
# GF(2) packing helpers


def _nwords(ncols: int) -> int:
    return (ncols + 63) >> 6


def _pack_rows_u8(rows: np.ndarray) -> np.ndarray:
    """Pack a (m, n) 0/1 array into (m, ceil(n/64)) uint64 words."""
    m, n = rows.shape
    nw = _nwords(n)
    if m == 0 or n == 0:
        return np.zeros((m, nw), np.uint64)
    by = np.packbits(rows.astype(np.uint8, copy=False), axis=1, bitorder="little")
    full = np.zeros((m, nw * 8), np.uint8)
    full[:, : by.shape[1]] = by
    return full.view("<u8").astype(np.uint64, copy=False)

def _unpack_bits(bits: np.ndarray, ncols: int) -> np.ndarray:
    """Inverse of _pack_rows_u8; returns a (m, ncols) uint8 array."""
    m = bits.shape[0]
    if m == 0 or ncols == 0:
        return np.zeros((m, ncols), np.uint8)
    by = np.ascontiguousarray(bits, dtype="<u8").view(np.uint8)
    return np.unpackbits(by, axis=1, bitorder="little")[:, :ncols]


def _row_ints(bits: np.ndarray) -> list[int]:
    """Packed rows as Python ints, bit j = column j."""
    m, nw = bits.shape
    raw = np.ascontiguousarray(bits, dtype="<u8").tobytes()
    step = nw * 8
    return [int.from_bytes(raw[i * step : (i + 1) * step], "little") for i in range(m)]


def _bits_int(bits: np.ndarray) -> int:
    """A 0/1 vector as an int, bit j = entry j."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _int_bits(v: int, ncols: int) -> np.ndarray:
    """Inverse of _bits_int; returns an ncols-entry uint8 vector."""
    by = np.frombuffer(v.to_bytes((ncols + 7) >> 3, "little"), np.uint8)
    return np.unpackbits(by, bitorder="little")[:ncols]


def _rows_packed(ints, ncols: int) -> np.ndarray:
    """Inverse of _row_ints; returns (len(ints), ceil(ncols/64)) uint64 words."""
    nw = _nwords(ncols)
    raw = b"".join(v.to_bytes(nw * 8, "little") for v in ints)
    return np.frombuffer(raw, "<u8").reshape(len(ints), nw).astype(np.uint64)


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
    def from_rows(cls, field: FieldSpec, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        if field.kind == GF2:
            arr = np.empty((nrows, ncols), np.uint8)
            for i, r in enumerate(rows):
                for j, v in enumerate(r):
                    if isinstance(v, (bool, float)):
                        raise TypeError(f"bad gf2 element {v!r}")
                    if isinstance(v, Fraction):
                        if v.denominator != 1:
                            raise ValueError(f"{v} is not a gf2 residue")
                        v = v.numerator
                    arr[i, j] = int(v) & 1
            return cls._new(field, nrows, ncols, _pack_rows_u8(arr))
        if field.kind == GFP:
            arr = np.empty((nrows, ncols), np.int64)
            for i, r in enumerate(rows):
                for j, v in enumerate(r):
                    arr[i, j] = _gfp_entry(v, field.p)
            return cls._new(field, nrows, ncols, arr)
        data = tuple(tuple(_rational_entry(v) for v in r) for r in rows)
        return cls._new(field, nrows, ncols, data)

    @classmethod
    def from_packed_gf2(cls, bits: np.ndarray, ncols: int) -> "Matrix":
        """Wrap already bit-packed rows (copied) as a gf2 matrix."""
        bits = np.array(bits, dtype=np.uint64)
        if bits.ndim != 2 or bits.shape[1] != _nwords(ncols):
            raise ValueError("packed shape does not match ncols")
        # clear padding bits beyond ncols so equality and rank see clean data
        if ncols & 63 and bits.shape[1]:
            bits[:, -1] &= np.uint64((1 << (ncols & 63)) - 1)
        return cls._new(FieldSpec.gf2(), bits.shape[0], ncols, bits)

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        if field.kind == GF2:
            return cls._new(field, nrows, ncols, np.zeros((nrows, _nwords(ncols)), np.uint64))
        if field.kind == GFP:
            return cls._new(field, nrows, ncols, np.zeros((nrows, ncols), np.int64))
        return cls._new(field, nrows, ncols, tuple((( _ZERO,) * ncols) for _ in range(nrows)))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        if field.kind == GF2:
            arr = np.eye(n, dtype=np.uint8)
            return cls._new(field, n, n, _pack_rows_u8(arr))
        if field.kind == GFP:
            return cls._new(field, n, n, np.eye(n, dtype=np.int64))
        rows = tuple(
            tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
        )
        return cls._new(field, n, n, rows)

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

    def transpose(self) -> "Matrix":
        if self.field.kind == GF2:
            return Matrix._new(self.field, self.ncols, self.nrows, self._t_bits())
        if self.field.kind == GFP:
            return Matrix._new(self.field, self.ncols, self.nrows, self._data.T.copy())
        rows = tuple(
            tuple(self._data[i][j] for i in range(self.nrows)) for j in range(self.ncols)
        )
        return Matrix._new(self.field, self.ncols, self.nrows, rows)

    # -- internal caches ----------------------------------------------

    def _t_bits(self) -> np.ndarray:
        """Packed rows of the transpose (gf2), freshly built."""
        return _pack_rows_u8(_unpack_bits(self._data, self.ncols).T)

    def _column_ints(self) -> list[int]:
        """Columns as nrows-bit integers (gf2). Cached."""
        ci = self._cache.get("colints")
        if ci is None:
            ci = self._cache["colints"] = _row_ints(self._t_bits())
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
                scaled = [_scaled(r[j] for r in self._data) for j in range(self.ncols)]
                cv = ([v for v, _ in scaled], [d for _, d in scaled])
            self._cache["colvecs"] = cv
        return cv

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
    vals = list(values)
    if field.kind == GF2:
        out = np.empty(len(vals), np.uint8)
        for i, v in enumerate(vals):
            if isinstance(v, (bool, float)):
                raise TypeError(f"bad gf2 element {v!r}")
            out[i] = int(v) & 1
        return out
    if field.kind == GFP:
        return np.array([_gfp_entry(v, field.p) for v in vals], np.int64)
    return [_rational_entry(v) for v in vals]


def zero_vector(field: FieldSpec, n: int):
    if field.kind == GF2:
        return np.zeros(n, np.uint8)
    if field.kind == GFP:
        return np.zeros(n, np.int64)
    return [_ZERO] * n


def vectors_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(np.asarray(a), np.asarray(b)))
    return list(a) == list(b)


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


def _native(field: FieldSpec, values) -> tuple[object, int]:
    """A gfp or rational vector in elimination form, and its scale."""
    if field.kind == GFP:
        return vector(field, values), 1
    vals = list(values)
    if all(type(v) is int for v in vals):
        return vals, 1
    return _scaled(_rational_entry(v) for v in vals)


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
    dense = ((idx[:, None] & ~np.arange(n)) == 0).astype(np.int64)
    if field.kind == GFP:
        return Matrix._new(field, len(idx), n, dense)
    rows = tuple(tuple(_ONE if v else _ZERO for v in row) for row in dense.tolist())
    return Matrix._new(field, len(idx), n, rows)


# ---------------------------------------------------------------------------
# successive-cancellation certificate for matrices of transform rows


@functools.lru_cache(maxsize=16)
def _sc_masks(n: int) -> tuple[tuple[int, int], ...]:
    """(h, the bits j of an n-bit int with j & h == 0) for h = n/2, ..., 1."""
    full = (1 << n) - 1
    return tuple(
        (h, full // ((1 << 2 * h) - 1) * ((1 << h) - 1))
        for h in (n >> k for k in range(1, n.bit_length()))
    )


def _sc_leaves(f, n: int):
    """Erasure flags of the n leaves of successive-cancellation decoding.

    ``f`` flags erased coordinates of x (bit j = coordinate j), and u =
    T x with T the n x n transform, T[i, j] = 1 when i & ~j == 0.  Split
    x by the index bit h into a (bit clear) and b (bit set): u's half
    with bit h clear is the transform of a + b, erased where a or b is;
    once that half is known, so is a + b, and u's other half is the
    transform of b, known where b is or a is (any two of a, b, a + b give
    the third), so erased where both are.  Leaf i is u_i's flag.  If
    every flagged leaf is a frozen u_i (a check row, u_i = 0), a word of
    the kernel that is zero off the flagged set is zero: the flagged
    columns are independent, over any field.  Takes ints, or uint64
    arrays when n <= 64.
    """
    for h, lo in _sc_masks(n):
        a = f & lo
        b = (f >> h) & lo
        f = a | b | ((a & b) << h)
    return f


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
    """Whether the selected columns are linearly independent.

    When m is made of transform rows (``Matrix._frozen_rows``), a set
    whose successive-cancellation leaves (``_sc_leaves``) are all
    unflagged or frozen is independent over every field; elimination
    decides the sets that certificate leaves open, and every other
    matrix.
    """
    cs = _as_column_set(cols, m.ncols)
    if len(cs) > m.nrows:
        return False
    frozen = m._frozen_rows()
    if frozen is not None:
        flags = np.zeros(m.ncols, np.uint8)
        flags[np.array(cs.indices, np.intp) - 1] = 1
        if not _sc_leaves(_bits_int(flags), m.ncols) & ~frozen:
            return True
    make_basis, vecs = independence_tracker(m)
    basis = make_basis()
    return all(basis.insert(vecs[j]) for j in cs.zero_based())


def kernel(m: Matrix) -> KernelBasis:
    """Basis of {v : m @ v = 0}; one vector per free column.

    The vector of free column f is 1 at f, 0 at the other free columns
    and supported on the pivots before f (pivots: the columns
    independent of the columns before them).
    """
    n = m.ncols
    if m.field.kind == GF2:
        _, relations, _ = _gf2core.echelon(m._column_ints())
        return KernelBasis(m.field, n, tuple(_int_bits(r, n) for r in relations))
    _, relations = _echelon(m.field, *m._column_vectors(), m.nrows)
    return KernelBasis(m.field, n, tuple(relations))


def _generator(m: Matrix) -> tuple[Matrix, tuple[int, ...] | None]:
    """The vectors of ``kernel(m)`` as the rows of a matrix, and over
    GF(2) also as ints (bit j = entry j), read straight off the
    elimination's relations."""
    n = m.ncols
    if m.field.kind == GF2:
        _, relations, _ = _gf2core.echelon(m._column_ints())
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
    cache (``_column_ints`` over GF(2), ``_column_vectors`` otherwise),
    so no sub-matrix is built.  Returns (rank, consistent, x) with x of
    length len(idx), or None when the system is inconsistent.
    """
    idx = list(idx)
    k = len(idx)
    if m.field.kind == GF2:
        yv = vector(m.field, y)
        if yv.shape[0] != m.nrows:
            raise ValueError("rhs length does not match nrows")
        cols = m._column_ints()
        rk, ok, x = _gf2core.solve_packed([cols[j] for j in idx], _bits_int(yv))
        return rk, ok, (_int_bits(x, k) if ok else None)
    yv, d = _native(m.field, y)
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
    if m.field.kind == GF2:
        xv = vector(m.field, x)
        if xv.shape[0] != m.ncols:
            raise ValueError("vector length does not match ncols")
        # the sum of the cached columns at x's ones
        cols = m._column_ints()
        acc = 0
        for j in np.flatnonzero(xv).tolist():
            acc ^= cols[j]
        return _int_bits(acc, m.nrows)
    if m.field.kind == GFP:
        xv = np.asarray(vector(m.field, x), np.int64)
        if xv.shape[0] != m.ncols:
            raise ValueError("vector length does not match ncols")
        out = np.zeros(m.nrows, np.int64)
        p = m.field.p
        step = max(1, (1 << 21) // max(1, m.ncols))
        for lo in range(0, m.nrows, step):
            hi = min(m.nrows, lo + step)
            out[lo:hi] = (m._data[lo:hi] * xv[None, :] % p).sum(axis=1) % p
        return out
    xv = vector(m.field, x)
    if len(xv) != m.ncols:
        raise ValueError("vector length does not match ncols")
    # column j is cols[j] / scales[j]: sum the ints over a common denominator
    cols, scales = m._column_vectors()
    coeffs = [(j, v / scales[j]) for j, v in enumerate(xv) if v]
    den = math.lcm(*(c.denominator for _, c in coeffs))
    acc = [0] * m.nrows
    for j, c in coeffs:
        k = c.numerator * (den // c.denominator)
        acc = [a + k * b for a, b in zip(acc, cols[j])]
    return [Fraction(a, den) for a in acc]


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
    """Incremental GF(2) span tracker over int bitmasks."""

    __slots__ = ("_piv",)

    def __init__(self):
        self._piv = {}

    def insert(self, v: int) -> bool:
        """Add a vector; True when it was independent of the span so far."""
        return _gf2core.insert(self._piv, v) is None

    def copy(self) -> "BitBasis":
        """Independent tracker with the same span."""
        other = BitBasis()
        other._piv = self._piv.copy()
        return other

    def __len__(self) -> int:
        return len(self._piv)


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

    def copy(self) -> "VectorBasis":
        """Independent tracker with the same span (stored vectors are
        never modified, so they are shared)."""
        other = VectorBasis(self._field)
        other._piv = self._piv.copy()
        return other

    def __len__(self) -> int:
        return len(self._piv)


def independence_tracker(m: Matrix):
    """Tracker plus per-column vectors for subset dependence tests."""
    if m.field.kind == GF2:
        return BitBasis, m._column_ints()
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
            basis = make_basis()
            for j in combo:
                if not basis.insert(cols[j]):
                    return SubsetSearch(
                        "found", ColumnSet(tuple(c + 1 for c in combo)), tested
                    )
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
    vals = list(nodes)
    if field.kind == GF2:
        canon = [int(v) & 1 for v in vals]
    elif field.kind == GFP:
        canon = [_gfp_entry(v, field.p) for v in vals]
    else:
        canon = [_rational_entry(v) for v in vals]
    if len(set(canon)) != len(canon):
        raise ValueError("nodes must be distinct in the field")
    rows = []
    if field.kind in (GF2, GFP):
        q = 2 if field.kind == GF2 else field.p
        row = [1 % q] * len(canon)
        for _ in range(m):
            rows.append(list(row))
            row = [r * v % q for r, v in zip(row, canon)]
    else:
        row = [_ONE] * len(canon)
        for _ in range(m):
            rows.append(list(row))
            row = [r * v for r, v in zip(row, canon)]
    return Matrix.from_rows(field, rows)


# ---------------------------------------------------------------------------
# text format: "<nrows> <ncols> <field>" then one whitespace-separated row
# per line; rational entries as a/b or plain integers


def _write_text(target, text: str) -> None:
    """Write ``text`` to a stream, or to a path atomically.

    A path gets a sibling temporary file, created as ``open`` would
    create it (mode 0o666 less the umask) and renamed over the path, so
    a reader sees the old file or the new one, never a part; the
    temporary file is removed when anything fails.
    """
    if hasattr(target, "write"):
        target.write(text)
        return
    path = os.path.abspath(target)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
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
    text = _read_text(source)
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
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
    if len(body) != nrows:
        raise ValueError(f"expected {nrows} rows, found {len(body)}")
    parse = Fraction if field.kind == RATIONAL else int
    rows = []
    for lineno, ln in body:
        toks = ln.split()
        if len(toks) != ncols:
            raise ValueError(f"line {lineno}: expected {ncols} entries, found {len(toks)}")
        try:
            rows.append([parse(t) for t in toks])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: bad {field} entry ({exc})") from exc
    if not rows:
        return Matrix.zeros(field, nrows, ncols)
    return Matrix.from_rows(field, rows)
