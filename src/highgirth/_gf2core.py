"""GF(2) elimination on Python ints.

A vector is an int whose bit i is its entry i, so adding two vectors is
one XOR.  ``insert`` is the only elimination loop: it reduces a vector
from its top bit down against a pivot table, a list whose entry h holds
the basis vector with bit length h (or None), and either adds it or
returns what is left.  Every caller sizes its table past the longest
vector it will insert and counts its own rank.  Everything else is
built on it:

- ``rank_packed`` inserts vectors (rows or columns) and counts;
- ``echelon`` and ``solve_packed`` insert a matrix's columns in order,
  each tagged in its low bits with the set of input columns it sums.

Inserting columns in order makes a column a pivot exactly when it is
independent of the columns before it, which is the pivot set of the
reduced row echelon form (lowest column first).  So the kernel basis
and the free-variables-zero solution read off the tags are the
canonical ones, whatever the elimination order inside.

The packing helpers at the end convert between those ints, 0/1 numpy
vectors, and rows packed into little-endian 64-bit words.
"""
from __future__ import annotations

import functools
import itertools
import operator

import numpy as np


def insert(table: list, v: int, floor: int = 1) -> int | None:
    """Reduce ``v`` against the pivot ``table`` on its bits at or above
    ``floor``; the table is longer than v's bit length.

    Returns None when a bit there survives, after adding the reduced
    vector to ``table``; otherwise returns the remainder, which is below
    ``floor``.
    """
    while v >= floor:
        h = v.bit_length()
        row = table[h]
        if row is None:
            table[h] = v
            return None
        v ^= row
    return v


def echelon(columns: list[int]) -> tuple[list[int], list[int], list]:
    """Eliminate ``columns`` (bit i = row i) in order.

    Returns (pivots, relations, table).  ``pivots`` are the columns
    independent of the columns before them, ascending.  ``relations``
    holds one mask per other column, in order: that column plus the
    earlier pivots that sum to it, so each is a kernel vector.  Each
    vector in the pivot ``table`` is a reduced column shifted up by
    ``len(columns)`` bits, above the mask of input columns it sums.
    """
    k = len(columns)
    floor = 1 << k
    table = [None] * (max(columns, default=0).bit_length() + k + 1)
    pivots, relations = [], []
    for j, c in enumerate(columns):
        rest = insert(table, (c << k) | (1 << j), floor)
        if rest is None:
            pivots.append(j)
        else:
            relations.append(rest)
    return pivots, relations, table


def solve_packed(columns: list[int], y: int, nrows: int) -> tuple[int, bool, int]:
    """Solve sum of x_j * columns[j] = y over ``nrows`` rows.

    Returns (rank, consistent, x) with x the mask of the unique solution
    supported on the pivot columns (every free variable zero); x is 0
    when the system is inconsistent.  Once nrows columns are pivots the
    rest are free and y is in their span, so elimination stops there.
    """
    k = len(columns)
    floor = 1 << k
    table = [None] * (max(max(columns, default=0), y).bit_length() + k + 1)
    rank = 0
    for j, c in enumerate(columns):
        if rank == nrows:
            break
        rank += insert(table, (c << k) | (1 << j), floor) is None
    x = insert(table, y << k, floor)
    return rank, x is not None, x or 0


def rank_packed(vectors: list[int]) -> int:
    """Number of linearly independent vectors among ``vectors``."""
    table = [None] * (max(vectors, default=0).bit_length() + 1)
    return sum(insert(table, v) is None for v in vectors)


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


def _xor_at(ints, bits: np.ndarray) -> int:
    """The XOR of ints[j] over the ones j of a 0/1 vector."""
    return functools.reduce(operator.xor, itertools.compress(ints, bits.tolist()), 0)


def _rows_packed(ints, ncols: int) -> np.ndarray:
    """Inverse of _row_ints; returns (len(ints), ceil(ncols/64)) uint64 words."""
    nw = _nwords(ncols)
    raw = b"".join(v.to_bytes(nw * 8, "little") for v in ints)
    return np.frombuffer(raw, "<u8").reshape(len(ints), nw).astype(np.uint64)
