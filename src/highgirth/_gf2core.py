"""GF(2) elimination on Python ints.

A vector is an int whose bit i is its entry i, so adding two vectors is
one XOR.  ``insert`` is the only elimination loop: it reduces a vector
against a basis keyed by each basis vector's highest set bit and either
adds it or returns what is left.  Everything else is built on it:

- ``rank_packed`` inserts vectors (rows or columns) and counts;
- ``echelon`` inserts a matrix's columns in order, each tagged in its
  low bits with the set of input columns it is the sum of.

Inserting columns in order makes a column a pivot exactly when it is
independent of the columns before it, which is the pivot set of the
reduced row echelon form (lowest column first).  So the kernel basis
and the free-variables-zero solution read off the tags are the
canonical ones, whatever the elimination order inside.
"""
from __future__ import annotations


def insert(basis: dict[int, int], v: int, floor: int = 1) -> int | None:
    """Reduce ``v`` against ``basis`` on its bits at or above ``floor``.

    Returns None when a bit there survives, after adding the reduced
    vector to ``basis``; otherwise returns the remainder, which is below
    ``floor``.
    """
    while v >= floor:
        h = v.bit_length()
        row = basis.get(h)
        if row is None:
            basis[h] = v
            return None
        v ^= row
    return v


def echelon(columns: list[int]) -> tuple[list[int], list[int], dict[int, int]]:
    """Eliminate ``columns`` (bit i = row i) in order.

    Returns (pivots, relations, basis).  ``pivots`` are the columns
    independent of the columns before them, ascending.  ``relations``
    holds one mask per other column, in order: that column plus the
    earlier pivots that sum to it, so each is a kernel vector.  Each
    ``basis`` vector is a reduced column shifted up by ``len(columns)``
    bits, above the mask of input columns it sums.
    """
    k = len(columns)
    floor = 1 << k
    basis: dict[int, int] = {}
    pivots, relations = [], []
    for j, c in enumerate(columns):
        rest = insert(basis, (c << k) | (1 << j), floor)
        if rest is None:
            pivots.append(j)
        else:
            relations.append(rest)
    return pivots, relations, basis


def solve_packed(columns: list[int], y: int) -> tuple[int, bool, int]:
    """Solve sum of x_j * columns[j] = y.

    Returns (rank, consistent, x) with x the mask of the unique solution
    supported on the pivot columns (every free variable zero); x is 0
    when the system is inconsistent.
    """
    pivots, _, basis = echelon(columns)
    k = len(columns)
    x = insert(basis, y << k, 1 << k)
    return len(pivots), x is not None, x or 0


def rank_packed(vectors: list[int]) -> int:
    """Number of linearly independent vectors among ``vectors``."""
    basis: dict[int, int] = {}
    return sum(insert(basis, v) is None for v in vectors)
