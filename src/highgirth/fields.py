"""Exact linear algebra over GF(2), odd prime fields, and the rationals.

Matrices are immutable dense row-major arrays.  GF(2) rows are stored
bit-packed into 64-bit words, and GF(2) elimination runs on rows or
columns turned into Python ints (``_gf2core``); prime-field entries are
canonical residues in [0, p); rational entries are ``fractions.Fraction``
values.  No floating point enters any rank, kernel, or solve path.

Index conventions: ``ColumnSet`` (and the row sets built on top of it
elsewhere) uses 1-based indices, matching the text formats this package
reads and writes.  The plain accessors ``entry``/``row``/``column`` are
0-based like any other Python sequence.
"""
from __future__ import annotations

import itertools
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
# element arithmetic for the non-GF(2) backends


class _GfpArith:
    def __init__(self, p: int):
        self.p = p
        self.zero = 0
        self.one = 1

    def canon(self, v):
        if isinstance(v, Fraction):
            if v.denominator != 1:
                raise ValueError(f"{v} is not an integer residue")
            v = v.numerator
        if isinstance(v, (bool, float)):
            raise TypeError(f"bad prime-field element {v!r}")
        return int(v) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)

    def neg(self, a):
        return (-a) % self.p


class _RationalArith:
    zero = _ZERO
    one = _ONE

    @staticmethod
    def canon(v):
        if isinstance(v, float):
            raise TypeError("pass rational entries as Fraction, int, or 'a/b' string")
        if isinstance(v, str):
            return Fraction(v)
        return Fraction(v)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def inv(a):
        return 1 / a

    @staticmethod
    def neg(a):
        return -a


def _arith_for(field: FieldSpec):
    if field.kind == GFP:
        return _GfpArith(field.p)
    if field.kind == RATIONAL:
        return _RationalArith()
    raise ValueError("no element arithmetic shim for gf2; use the packed routines")


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


def _pack_vector_u8(x: np.ndarray) -> np.ndarray:
    return _pack_rows_u8(x.reshape(1, -1))[0]


def _row_ints(bits: np.ndarray) -> list[int]:
    """Packed rows as Python ints, bit j = column j."""
    m, nw = bits.shape
    raw = np.ascontiguousarray(bits, dtype="<u8").tobytes()
    step = nw * 8
    return [int.from_bytes(raw[i * step : (i + 1) * step], "little") for i in range(m)]


def _int_bits(ints, ncols: int) -> np.ndarray:
    """Inverse of _row_ints; returns a (len(ints), ncols) uint8 array."""
    nbytes = (ncols + 7) >> 3
    raw = b"".join(v.to_bytes(nbytes, "little") for v in ints)
    by = np.frombuffer(raw, np.uint8).reshape(len(ints), nbytes)
    return np.unpackbits(by, axis=1, bitorder="little")[:, :ncols]


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
            ar = _GfpArith(field.p)
            arr = np.empty((nrows, ncols), np.int64)
            for i, r in enumerate(rows):
                for j, v in enumerate(r):
                    arr[i, j] = ar.canon(v)
            return cls._new(field, nrows, ncols, arr)
        canon = _RationalArith.canon
        data = tuple(tuple(canon(v) for v in r) for r in rows)
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
        rows = [[cols[j][i] for j in range(len(cols))] for i in range(nrows)]
        if not rows:
            rows = [[] for _ in range(nrows)]
        m = cls.from_rows(field, rows) if rows else cls.zeros(field, nrows, 0)
        if m.ncols != len(cols) or m.nrows != nrows:
            m = cls.zeros(field, nrows, len(cols))
        return m

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

    def _column_vectors(self) -> list:
        cv = self._cache.get("colvecs")
        if cv is None:
            if self.field.kind == GFP:
                cv = [tuple(int(v) for v in self._data[:, j]) for j in range(self.ncols)]
            else:
                cv = [tuple(r[j] for r in self._data) for j in range(self.ncols)]
            self._cache["colvecs"] = cv
        return cv

    # -- dunder -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        if self.field.kind == GF2:
            return bool(np.array_equal(self._data, other._data))
        if self.field.kind == GFP:
            return bool(np.array_equal(self._data, other._data))
        return self._data == other._data

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
    vals = list(values)
    if field.kind == GF2:
        out = np.empty(len(vals), np.uint8)
        for i, v in enumerate(vals):
            if isinstance(v, (bool, float)):
                raise TypeError(f"bad gf2 element {v!r}")
            out[i] = int(v) & 1
        return out
    if field.kind == GFP:
        ar = _GfpArith(field.p)
        return np.array([ar.canon(v) for v in vals], np.int64)
    return [_RationalArith.canon(v) for v in vals]


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
# elimination over gfp / rationals (list-of-list rows, pivot normalized to 1)


def _generic_echelon(rows, arith, pivot_cols: int, reduce_above: bool) -> list[int]:
    m = len(rows)
    pivots = []
    r = 0
    for c in range(pivot_cols):
        if r == m:
            break
        p = next((i for i in range(r, m) if rows[i][c] != arith.zero), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = arith.inv(rows[r][c])
        if inv != arith.one:
            rows[r] = [arith.mul(inv, v) for v in rows[r]]
        lo = 0 if reduce_above else r + 1
        for i in range(lo, m):
            if i == r:
                continue
            f = rows[i][c]
            if f != arith.zero:
                pr = rows[r]
                rows[i] = [arith.sub(v, arith.mul(f, w)) for v, w in zip(rows[i], pr)]
        pivots.append(c)
        r += 1
    return pivots


def _generic_rows(m: Matrix) -> list[list]:
    if m.field.kind == GFP:
        return [[int(v) for v in row] for row in m._data]
    return [list(row) for row in m._data]


# ---------------------------------------------------------------------------
# rank / kernel / solve


def rank(m: Matrix) -> int:
    """Matrix rank over its own field."""
    if m.field.kind == GF2:
        return _gf2core.rank_packed(_row_ints(m._data))
    rows = _generic_rows(m)
    return len(_generic_echelon(rows, _arith_for(m.field), m.ncols, False))


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
    """Whether the selected columns are linearly independent."""
    cs = _as_column_set(cols, m.ncols)
    if len(cs) > m.nrows:
        return False
    make_basis, vecs = independence_tracker(m)
    basis = make_basis()
    return all(basis.insert(vecs[j]) for j in cs.zero_based())


def kernel(m: Matrix) -> KernelBasis:
    """Basis of {v : m @ v = 0}; one vector per free column."""
    n = m.ncols
    if m.field.kind == GF2:
        _, relations, _ = _gf2core.echelon(m._column_ints())
        return KernelBasis(m.field, n, tuple(_int_bits(relations, n)))
    arith = _arith_for(m.field)
    rows = _generic_rows(m)
    pivots = _generic_echelon(rows, arith, n, True)
    free = sorted(set(range(n)) - set(pivots))
    vecs = []
    for f in free:
        v = zero_vector(m.field, n)
        v[f] = arith.one
        for r_i, c in enumerate(pivots):
            v[c] = arith.neg(rows[r_i][f])
        vecs.append(v)
    return KernelBasis(m.field, n, tuple(vecs))


def solve_full(m: Matrix, y):
    """Solve m @ x = y with free variables set to zero.

    Returns (rank, consistent, x) where x is None when inconsistent.
    The solution is unique exactly when consistent and rank == ncols.
    """
    n = m.ncols
    if m.field.kind == GF2:
        yv = np.asarray(vector(m.field, y), np.uint8)
        if yv.shape[0] != m.nrows:
            raise ValueError("rhs length does not match nrows")
        y_int = _row_ints(_pack_vector_u8(yv)[None, :])[0]
        rk, ok, x = _gf2core.solve_packed(m._column_ints(), y_int)
        return rk, ok, (_int_bits([x], n)[0] if ok else None)
    arith = _arith_for(m.field)
    yv = vector(m.field, y)
    if len(yv) != m.nrows:
        raise ValueError("rhs length does not match nrows")
    rows = _generic_rows(m)
    for r, b in zip(rows, yv):
        r.append(b if m.field.kind != GFP else int(b))
    pivots = _generic_echelon(rows, arith, n, False)
    rk = len(pivots)
    consistent = all(rows[i][n] == arith.zero for i in range(rk, m.nrows))
    if not consistent:
        return rk, False, None
    x = zero_vector(m.field, n)
    xs = list(x)
    for j in range(rk - 1, -1, -1):
        c = pivots[j]
        acc = rows[j][n]
        for t in range(c + 1, n):
            coeff = rows[j][t]
            if coeff != arith.zero and xs[t] != arith.zero:
                acc = arith.sub(acc, arith.mul(coeff, xs[t]))
        xs[c] = acc
    if m.field.kind == GFP:
        return rk, True, np.array([int(v) for v in xs], np.int64)
    return rk, True, xs


def solve(m: Matrix, y):
    """Some x with m @ x = y, or None when the system is inconsistent."""
    _, ok, x = solve_full(m, y)
    return x if ok else None


def matvec(m: Matrix, x):
    """Matrix-vector product over the matrix field."""
    if m.field.kind == GF2:
        xv = np.asarray(vector(m.field, x), np.uint8)
        if xv.shape[0] != m.ncols:
            raise ValueError("vector length does not match ncols")
        xb = _pack_vector_u8(xv)
        if m.nrows == 0:
            return np.zeros(0, np.uint8)
        acc = m._data & xb[None, :]
        if hasattr(np, "bitwise_count"):
            pops = np.bitwise_count(acc).sum(axis=1)
        else:  # pragma: no cover - numpy < 2.0
            pops = np.unpackbits(acc.view(np.uint8), axis=1).sum(axis=1)
        return (pops & 1).astype(np.uint8)
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
    out = []
    for row in m._data:
        acc = _ZERO
        for a, b in zip(row, xv):
            if a and b:
                acc += a * b
        out.append(acc)
    return out


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
    """Incremental span tracker over sequences of field elements."""

    def __init__(self, field: FieldSpec):
        self._arith = _arith_for(field)
        self._piv = {}

    def insert(self, vec) -> bool:
        """Add a vector; True when it was independent of the span so far."""
        ar = self._arith
        v = list(vec)
        while True:
            j = next((t for t, x in enumerate(v) if x != ar.zero), None)
            if j is None:
                return False
            row = self._piv.get(j)
            if row is None:
                inv = ar.inv(v[j])
                if inv != ar.one:
                    v = [ar.mul(inv, x) for x in v]
                self._piv[j] = v
                return True
            f = v[j]
            v = [ar.sub(x, ar.mul(f, w)) for x, w in zip(v, row)]

    def copy(self) -> "VectorBasis":
        """Independent tracker with the same span (stored rows are never
        mutated, so they are shared)."""
        other = VectorBasis.__new__(VectorBasis)
        other._arith = self._arith
        other._piv = self._piv.copy()
        return other

    def __len__(self) -> int:
        return len(self._piv)


def independence_tracker(m: Matrix):
    """Tracker plus per-column vectors for subset dependence tests."""
    if m.field.kind == GF2:
        return BitBasis, m._column_ints()
    return (lambda: VectorBasis(m.field)), m._column_vectors()


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
        ar = _GfpArith(field.p)
        canon = [ar.canon(v) for v in vals]
    else:
        canon = [_RationalArith.canon(v) for v in vals]
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


def write_matrix(m: Matrix, target) -> None:
    lines = [f"{m.nrows} {m.ncols} {m.field.name()}"]
    for row in m.to_rows():
        lines.append(" ".join(str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="ascii") as fh:
            fh.write(text)


def read_matrix(source) -> Matrix:
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="ascii") as fh:
            text = fh.read()
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
