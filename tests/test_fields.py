"""Exact linear algebra: ranks, kernels, girth, and the three backends."""

import io
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from highgirth import (
    ColumnSet,
    FieldSpec,
    Matrix,
    SelectionSpec,
    as_fraction,
    check_matrix,
    columns_independent,
    exact_girth,
    first_dependent_subset,
    kernel,
    matmul,
    matvec,
    parse_probability,
    rank,
    read_matrix,
    select_columns,
    solve,
    solve_full,
    vandermonde,
    write_matrix,
)
from highgirth import _butterfly
from highgirth import _gf2core as core
from highgirth import fields
from highgirth._butterfly import _bp_known, _gf2_transform, _polar_block, _sc_decode, _sc_plan
from highgirth._gf2core import _bits_int, _int_bits
from highgirth.fields import (
    BitBasis,
    VectorBasis,
    independence_tracker,
    vector,
    vectors_equal,
    zero_vector,
)

GF2 = FieldSpec.gf2()
GF3 = FieldSpec.gfp(3)
GF5 = FieldSpec.gfp(5)
RAT = FieldSpec.rational()
ALL_FIELDS = (GF2, GF3, GF5, RAT)


def random_rows(rng, nrows, ncols, field):
    if field.kind == "gf2":
        return [[rng.randrange(2) for _ in range(ncols)] for _ in range(nrows)]
    if field.kind == "gfp":
        return [[rng.randrange(field.p) for _ in range(ncols)] for _ in range(nrows)]
    return [
        [Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def brute_girth(m):
    """Smallest dependent column subset by direct enumeration."""
    for size in range(1, m.ncols + 1):
        for cols in itertools.combinations(range(1, m.ncols + 1), size):
            if not columns_independent(m, ColumnSet.of(cols)):
                return size
    return m.ncols + 1


# ---------------------------------------------------------------- FieldSpec

def test_fieldspec_parse_and_name():
    assert FieldSpec.parse("gf2") == GF2
    assert FieldSpec.parse("gfp:7").p == 7
    assert FieldSpec.parse("rational") == RAT
    assert GF3.name() == "gfp:3"
    assert GF2.name() == "gf2"
    assert RAT.name() == "rational"
    assert GF2.order == 2 and GF5.order == 5 and RAT.order is None


def test_fieldspec_rejects_bad_input():
    with pytest.raises(ValueError):
        FieldSpec.parse("gfp:4")
    with pytest.raises(ValueError):
        FieldSpec.parse("gfp:1")
    with pytest.raises(ValueError):
        FieldSpec.parse("gf3")
    with pytest.raises(ValueError):
        FieldSpec.gfp(2 ** 31)


def test_as_fraction_rejects_floats():
    assert as_fraction("2/3") == Fraction(2, 3)
    assert as_fraction(1) == 1
    with pytest.raises(TypeError):
        as_fraction(0.5)
    with pytest.raises(ValueError):
        parse_probability("3/2")
    with pytest.raises(ValueError):
        parse_probability("-1/2")


# ---------------------------------------------------------------- ColumnSet

def test_columnset_basics():
    cs = ColumnSet.of([3, 1, 2])
    assert cs.indices == (1, 2, 3)
    assert list(cs.zero_based()) == [0, 1, 2]
    assert len(ColumnSet.empty()) == 0
    assert ColumnSet.full(4).indices == (1, 2, 3, 4)
    assert ColumnSet.of([1, 3]).complement(4).indices == (2, 4)
    assert ColumnSet.of([1, 1]).indices == (1,)  # set semantics
    with pytest.raises(ValueError):
        ColumnSet.of([0, 1])
    with pytest.raises(ValueError):
        ColumnSet((2, 1))  # raw constructor wants sorted distinct indices


# ---------------------------------------------------------------- rank / kernel

def test_rank_known_values():
    assert rank(Matrix.from_rows(GF2, [[1, 0], [0, 1]])) == 2
    assert rank(Matrix.from_rows(GF2, [[1, 1], [1, 1]])) == 1
    # 0/1 matrix singular mod 2 but invertible over the rationals
    m = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert rank(Matrix.from_rows(GF2, m)) == 2
    assert rank(Matrix.from_rows(RAT, m)) == 3
    assert rank(Matrix.from_rows(GF3, [[1, 2], [2, 4]])) == 1
    assert rank(Matrix.zeros(GF5, 3, 4)) == 0
    assert rank(Matrix.identity(RAT, 5)) == 5


def test_rank_subset_monotone():
    rng = random.Random(101)
    for field in ALL_FIELDS:
        for _ in range(25):
            nrows = rng.randrange(1, 7)
            ncols = rng.randrange(1, 9)
            m = Matrix.from_rows(field, random_rows(rng, nrows, ncols, field))
            full = rank(m)
            assert full <= min(nrows, ncols)
            size = rng.randrange(0, ncols + 1)
            cols = ColumnSet.of(rng.sample(range(1, ncols + 1), size))
            sub = rank(select_columns(m, cols)) if size else 0
            assert sub <= size
            assert sub <= full + (ncols - size)
            assert full <= sub + (ncols - size)


def test_gf2_rank_never_exceeds_rational_rank():
    # an odd determinant survives the passage to the rationals
    rng = random.Random(7)
    for _ in range(40):
        nrows = rng.randrange(1, 11)
        ncols = rng.randrange(1, 13)
        rows = [[rng.randrange(2) for _ in range(ncols)] for _ in range(nrows)]
        r2 = rank(Matrix.from_rows(GF2, rows))
        rq = rank(Matrix.from_rows(RAT, rows))
        assert r2 <= rq


def test_kernel_properties():
    rng = random.Random(202)
    for field in ALL_FIELDS:
        for _ in range(15):
            nrows = rng.randrange(1, 6)
            ncols = rng.randrange(1, 8)
            m = Matrix.from_rows(field, random_rows(rng, nrows, ncols, field))
            kb = kernel(m)
            assert len(kb.vectors) + rank(m) == ncols
            z = zero_vector(field, nrows)
            for v in kb.vectors:
                assert vectors_equal(matvec(m, v), z)


def test_kernel_vectors_independent():
    m = Matrix.from_rows(GF2, [[1, 1, 1, 1]])
    kb = kernel(m)
    assert len(kb.vectors) == 3
    basis = Matrix.from_rows(GF2, [list(map(int, v)) for v in kb.vectors])
    assert rank(basis) == 3


# ---------------------------------------------------------------- solving

def test_solve_roundtrip():
    rng = random.Random(303)
    for field in ALL_FIELDS:
        for _ in range(20):
            nrows = rng.randrange(1, 6)
            ncols = rng.randrange(1, 6)
            m = Matrix.from_rows(field, random_rows(rng, nrows, ncols, field))
            x = vector(field, random_rows(rng, 1, ncols, field)[0])
            y = matvec(m, x)
            rk, consistent, sol = solve_full(m, y)
            assert consistent
            assert rk == rank(m)
            assert vectors_equal(matvec(m, sol), y)


def test_solve_detects_inconsistency():
    m = Matrix.from_rows(RAT, [[1, 0], [1, 0]])
    y = vector(RAT, [1, 2])
    rk, consistent, sol = solve_full(m, y)
    assert rk == 1 and not consistent and sol is None
    assert solve(m, y) is None


# ---------------------------------------------------------------- girth

def test_girth_frozen_small():
    # columns 1,3 and 2,3 are each independent, all three sum to zero mod 2
    m = Matrix.from_rows(GF2, [[1, 0, 1], [0, 1, 1]])
    assert exact_girth(m) == 3
    # fully independent columns report ncols + 1
    assert exact_girth(Matrix.identity(GF2, 4)) == 5
    assert exact_girth(Matrix.from_rows(GF2, [[1, 0], [0, 0]])) == 1  # zero column


def test_girth_matches_brute_force():
    rng = random.Random(404)
    for field in (GF2, GF3, RAT):
        for _ in range(12):
            nrows = rng.randrange(1, 5)
            ncols = rng.randrange(1, 7)
            m = Matrix.from_rows(field, random_rows(rng, nrows, ncols, field))
            assert exact_girth(m) == brute_girth(m)


def test_girth_never_exceeds_rank_plus_one():
    rng = random.Random(505)
    for _ in range(30):
        nrows = rng.randrange(1, 6)
        ncols = rng.randrange(2, 9)
        m = Matrix.from_rows(GF2, random_rows(rng, nrows, ncols, GF2))
        g = exact_girth(m)
        if g is not None:
            assert g <= rank(m) + 1


def test_first_dependent_subset():
    m = Matrix.from_rows(GF2, [[1, 0, 1], [0, 1, 1]])
    res = first_dependent_subset(m, 3)
    assert res.status == "found"
    assert not columns_independent(m, res.witness)
    assert len(res.witness) == 3
    res2 = first_dependent_subset(m, 2)
    assert res2.status == "independent" and res2.witness is None
    res3 = first_dependent_subset(m, 3, budget=2)
    assert res3.status == "budget"


def test_vandermonde_girth():
    # distinct evaluation points make every square minor nonzero
    v11 = vandermonde(GF5, 3, [1, 2, 3, 4])
    assert exact_girth(v11) == 4
    vr = vandermonde(RAT, 4, [1, 2, 3, 4, 5, 6, 7, 8])
    assert exact_girth(vr) == 5
    with pytest.raises(ValueError):
        vandermonde(GF3, 2, [1, 1, 2])  # repeated node


# ---------------------------------------------------------------- matmul

def test_matmul_identity_and_associativity():
    rng = random.Random(606)
    for field in ALL_FIELDS:
        a = Matrix.from_rows(field, random_rows(rng, 3, 4, field))
        b = Matrix.from_rows(field, random_rows(rng, 4, 2, field))
        ab = matmul(a, b)
        assert (ab.nrows, ab.ncols) == (3, 2)
        left = matmul(Matrix.identity(field, 3), a)
        assert left.to_rows() == a.to_rows()
        x = vector(field, random_rows(rng, 1, 2, field)[0])
        assert vectors_equal(matvec(ab, x), matvec(a, matvec(b, x)))


# ---------------------------------------------------------------- bases

def test_bit_basis_matches_matrix_rank():
    rng = random.Random(707)
    for _ in range(20):
        nrows = rng.randrange(1, 9)
        cols = [rng.getrandbits(nrows) for _ in range(10)]
        bb = BitBasis()
        inserted = sum(1 for c in cols if bb.insert(c))
        rows = [[(c >> i) & 1 for c in cols] for i in range(nrows)]
        assert inserted == len(bb) == rank(Matrix.from_rows(GF2, rows))


def test_vector_basis_matches_matrix_rank():
    rng = random.Random(717)
    for field in (GF3, GF5, RAT):
        for _ in range(10):
            nrows = rng.randrange(1, 6)
            colvecs = random_rows(rng, 6, nrows, field)  # one row per column
            vb = VectorBasis(field)
            inserted = sum(1 for c in colvecs if vb.insert(list(c)))
            rows = [[colvecs[j][i] for j in range(6)] for i in range(nrows)]
            assert inserted == len(vb) == rank(Matrix.from_rows(field, rows))


def test_independence_tracker_matches_rank():
    rng = random.Random(808)
    for field in ALL_FIELDS:
        nrows, ncols = 5, 8
        rows = random_rows(rng, nrows, ncols, field)
        m = Matrix.from_rows(field, rows)
        factory, cols = independence_tracker(m)
        tracker = factory()
        got = sum(1 for j in range(ncols) if tracker.insert(cols[j]))
        assert got == rank(m)


# ---------------------------------------------------------------- io

def test_matrix_io_roundtrip(tmp_path):
    rng = random.Random(909)
    for field in ALL_FIELDS:
        m = Matrix.from_rows(field, random_rows(rng, 4, 6, field))
        path = tmp_path / f"m_{field.name().replace(':', '_')}.txt"
        write_matrix(m, str(path))
        back = read_matrix(str(path))
        assert back.field == field
        assert back.to_rows() == m.to_rows()


def test_rational_matrix_read_equals_from_rows():
    # each token is parsed once; the result equals the coerced matrix,
    # 0 and 1 included as the shared entries
    text = "3 4 rational\n0 1 -2 3/4\n-5/6 1 0 2/4\n7 -1 1/3 0\n"
    rows = [[0, 1, -2, Fraction(3, 4)], [Fraction(-5, 6), 1, 0, Fraction(1, 2)], [7, -1, "1/3", "0"]]
    back = read_matrix(io.StringIO(text))
    assert back == Matrix.from_rows(RAT, rows)
    assert all(type(v) is Fraction for r in back.to_rows() for v in r)
    assert back.entry(0, 0) is back.entry(1, 2) and back.entry(0, 1) is back.entry(1, 1)
    buf = io.StringIO()
    write_matrix(back, buf)
    assert buf.getvalue() == text.replace("2/4", "1/2")
    for bad in ("1/0", "x", "1.2.3"):
        with pytest.raises(ValueError, match="line 2"):
            read_matrix(io.StringIO(f"1 2 rational\n1 {bad}\n"))


def test_matrix_io_stream():
    m = Matrix.from_rows(GF3, [[0, 1, 2], [2, 1, 0]])
    buf = io.StringIO()
    write_matrix(m, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "2 3 gfp:3"
    back = read_matrix(io.StringIO(text))
    assert back.to_rows() == m.to_rows()


# ---------------------------------------------------------------- gf2 engine
# The int engine in _gf2core is the only GF(2) eliminator.  These tests hold
# it to brute-force answers computed from the definitions on matrices with
# at most 10 columns, so no elimination is involved on the reference side.


def random_gf2(rng):
    """(rows, cols) of a random GF(2) matrix as ints; at most 10 columns."""
    nrows = rng.randrange(1, 9)
    ncols = rng.randrange(1, 11)
    density = rng.choice((0.2, 0.5, 0.8))
    rows = [sum(1 << j for j in range(ncols) if rng.random() < density) for _ in range(nrows)]
    if rng.random() < 0.3 and nrows > 1:  # force a repeated row
        rows[-1] = rows[0]
    cols = [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(ncols)]
    return rows, cols, ncols


def brute_independent(cols):
    """indep[mask]: whether the columns in ``mask`` are independent, from
    the definition (no nonempty sub-mask sums to zero)."""
    size = 1 << len(cols)
    total = [0] * size
    dep = [False] * size
    for mask in range(1, size):
        low = (mask & -mask).bit_length() - 1
        total[mask] = total[mask & (mask - 1)] ^ cols[low]
        dep[mask] = total[mask] == 0 or any(
            dep[mask & ~(1 << j)] for j in range(len(cols)) if mask >> j & 1
        )
    return [not d for d in dep], total


def brute_pivots(indep, ncols):
    """Columns at which the largest independent prefix subset grows."""
    best = [max(bin(mask).count("1") for mask in range(1 << k) if indep[mask]) for k in range(ncols + 1)]
    return [k for k in range(ncols) if best[k + 1] > best[k]], best[ncols]


def to_matrix(rows, ncols):
    return Matrix.from_rows(GF2, [[(r >> j) & 1 for j in range(ncols)] for r in rows])


def test_gf2_echelon_backends_match():
    rng = random.Random(111)
    for _ in range(120):
        rows, cols, ncols = random_gf2(rng)
        indep, total = brute_independent(cols)
        pivots, rk = brute_pivots(indep, ncols)
        assert rank(to_matrix(rows, ncols)) == rk
        assert core.rank_packed(rows) == core.rank_packed(cols) == rk
        got_pivots, relations, basis = core.echelon(cols)
        assert got_pivots == pivots
        assert sum(v is not None for v in basis) == rk
        free = [j for j in range(ncols) if j not in pivots]
        assert [r.bit_length() - 1 for r in relations] == free
        for f, rel in zip(free, relations):
            assert total[rel] == 0
            assert all(j in pivots for j in range(f) if rel >> j & 1)


def test_gf2_solve_backends_match():
    rng = random.Random(121)
    for t in range(120):
        rows, cols, ncols = random_gf2(rng)
        indep, total = brute_independent(cols)
        pivots, rk = brute_pivots(indep, ncols)
        piv_mask = sum(1 << c for c in pivots)
        if t % 2:  # y in the column space, often with rank < ncols
            y = total[rng.randrange(1 << ncols)]
        else:
            y = rng.getrandbits(len(rows))
        reachable = [x for x in range(1 << ncols) if total[x] == y]
        on_pivots = [x for x in reachable if x & ~piv_mask == 0]
        yv = [(y >> i) & 1 for i in range(len(rows))]
        got_rank, consistent, x = solve_full(to_matrix(rows, ncols), yv)
        assert (got_rank, consistent) == (rk, bool(reachable))
        if reachable:
            assert len(on_pivots) == 1
            assert sum(int(b) << j for j, b in enumerate(x)) == on_pivots[0]
            assert core.solve_packed(cols, y, len(rows)) == (rk, True, on_pivots[0])
        else:
            assert x is None
            assert core.solve_packed(cols, y, len(rows))[:2] == (rk, False)


def solve_every_column(columns, y):
    """The solve body that eliminates every column, whatever the rank."""
    pivots, _, basis = core.echelon(columns)
    k = len(columns)
    basis += [None] * y.bit_length()  # room for y's bits above every column's
    x = core.insert(basis, y << k, 1 << k)
    return len(pivots), x is not None, x or 0


def test_solve_stops_at_full_rank_with_the_same_answer():
    # wide, square and narrow systems, 0 rows included, with y in the
    # span and y random: stopping once the basis holds nrows pivots leaves
    # rank, consistency and the pivot-supported solution unchanged
    rng = random.Random(141)
    shapes = [(0, 0), (0, 5), (1, 1), (3, 9), (8, 8), (9, 3)]
    shapes += [(rng.randrange(1, 40), rng.randrange(1, 60)) for _ in range(200)]
    full_rank = 0
    for nrows, ncols in shapes:
        density = rng.choice((0.1, 0.5, 0.9))
        cols = [sum(1 << i for i in range(nrows) if rng.random() < density) for _ in range(ncols)]
        span = 0
        for c in cols:
            span ^= c * rng.randrange(2)
        for y in (span, rng.getrandbits(nrows) if nrows else 0):
            want = solve_every_column(cols, y)
            assert core.solve_packed(cols, y, nrows) == want, (nrows, ncols)
            full_rank += want[0] == nrows < ncols
    assert full_rank


# The dict-keyed kernel that the list pivot table replaced, kept as the
# reference: the basis is a dict keyed by each vector's bit length.


def dict_insert(basis, v, floor=1):
    while v >= floor:
        h = v.bit_length()
        row = basis.get(h)
        if row is None:
            basis[h] = v
            return None
        v ^= row
    return v


def dict_echelon(columns):
    k = len(columns)
    basis, pivots, relations = {}, [], []
    for j, c in enumerate(columns):
        rest = dict_insert(basis, (c << k) | (1 << j), 1 << k)
        if rest is None:
            pivots.append(j)
        else:
            relations.append(rest)
    return pivots, relations, basis


def dict_solve_packed(columns, y, nrows):
    k = len(columns)
    basis = {}
    for j, c in enumerate(columns):
        if len(basis) == nrows:
            break
        dict_insert(basis, (c << k) | (1 << j), 1 << k)
    rank = len(basis)
    x = dict_insert(basis, y << k, 1 << k)
    return rank, x is not None, x or 0


def table_entries(table):
    return {h: v for h, v in enumerate(table) if v is not None}


def test_list_table_kernel_matches_dict_reference():
    # 0 rows, 0 columns, zero columns, repeated columns and random ones;
    # y zero, random, in the span, and with its top bit above every
    # column's, the case that sizes the solve's table past the columns
    rng = random.Random(2323)
    cases = [(0, []), (0, [0, 0]), (3, []), (5, [0, 0, 0]), (4, [0, 0b1010, 0, 0b1010]), (6, [1] * 7)]
    for _ in range(300):
        nrows, ncols = rng.randrange(70), rng.randrange(50)
        density = rng.choice((0.05, 0.3, 0.7))
        cols = [sum(1 << i for i in range(nrows) if rng.random() < density) for _ in range(ncols)]
        if ncols and rng.random() < 0.3:
            cols[rng.randrange(ncols)] = 0
        cases.append((nrows, cols))
    above = 0
    for nrows, cols in cases:
        pivots, relations, table = core.echelon(cols)
        assert (pivots, relations, table_entries(table)) == dict_echelon(cols)
        ref = {}
        assert core.rank_packed(cols) == sum(dict_insert(ref, c) is None for c in cols) == len(pivots)
        span = 0
        for c in cols:
            span ^= c * rng.randrange(2)
        ys = [0, span, rng.getrandbits(nrows) if nrows else 0]
        top = max(cols, default=0).bit_length()
        if top < nrows:
            ys.append(1 << rng.randrange(top, nrows) | rng.getrandbits(top) if top else 1 << rng.randrange(nrows))
            above += 1
        for y in ys:
            assert core.solve_packed(cols, y, nrows) == dict_solve_packed(cols, y, nrows), (nrows, cols, y)
    assert above > 20


def test_list_table_insert_matches_dict_reference_at_every_floor():
    # tagged vectors inserted with random floors: the same remainders and
    # the same pivots, on a table sized past the longest vector
    rng = random.Random(2424)
    for _ in range(200):
        bits = rng.randrange(1, 40)
        table, ref = [None] * (bits + 1), {}
        for _ in range(rng.randrange(60)):
            v = rng.getrandbits(rng.randrange(bits + 1))
            floor = 1 << rng.randrange(bits + 1)
            assert core.insert(table, v, floor) == dict_insert(ref, v, floor)
            assert table_entries(table) == ref


def test_gf2_kernel_matches_reference():
    rng = random.Random(131)
    for _ in range(120):
        rows, cols, ncols = random_gf2(rng)
        indep, total = brute_independent(cols)
        pivots, _ = brute_pivots(indep, ncols)
        free = [j for j in range(ncols) if j not in pivots]
        ker = kernel(to_matrix(rows, ncols))
        assert len(ker) == len(free)
        for f, v in zip(free, ker):
            x = sum(int(b) << j for j, b in enumerate(v))
            assert total[x] == 0
            assert [(x >> g) & 1 for g in free] == [int(g == f) for g in free]


# ---------------------------------------------------------------- gfp / rational engine
# The same canonical forms over the other fields: the pivots are the columns
# independent of the columns before them, free column f's kernel vector is 1
# at f with support on the pivots before f, and solve_full's x is the one
# solution supported on the pivots.  GF(p) answers come from enumerating
# coefficient vectors, rational ones from a Fraction reduced echelon form.
# Each matrix has at most 6 columns, often zero or repeated ones.

RATIONAL_ENTRIES = (0, 1, -1, 2, Fraction(2, 3), Fraction(-5, 2), Fraction(3, 4), Fraction(-1, 3))


def random_dense(rng, field):
    """(nrows, columns) of a small random gfp or rational matrix."""
    nrows = rng.randrange(1, 5)
    ncols = rng.randrange(1, 7)

    def entry():
        return rng.randrange(field.p) if field.kind == "gfp" else rng.choice(RATIONAL_ENTRIES)

    cols = []
    for _ in range(ncols):
        roll = rng.random()
        if roll < 0.15:
            cols.append([0] * nrows)
        elif roll < 0.4 and cols:  # a multiple of an earlier column
            c = rng.choice((2, -1, Fraction(1, 3))) if field.kind == "rational" else rng.randrange(1, field.p)
            cols.append([c * v for v in rng.choice(cols)])
        else:
            cols.append([entry() for _ in range(nrows)])
    if field.kind == "gfp":
        cols = [[v % field.p for v in c] for c in cols]
    return nrows, cols


def dense_matrix(field, nrows, cols):
    return Matrix.from_rows(field, [[c[i] for c in cols] for i in range(nrows)])


def combination(cols, coeffs, nrows, p):
    return tuple(sum(x * c[i] for x, c in zip(coeffs, cols)) % p for i in range(nrows))


def gfp_reference(cols, nrows, p):
    """Pivots, each free column's kernel vector, and the solve map, all by
    enumerating coefficient vectors."""
    pivots = []
    for j, c in enumerate(cols):
        before = [cols[i] for i in pivots]
        span = {combination(before, x, nrows, p) for x in itertools.product(range(p), repeat=len(before))}
        if tuple(c) not in span:
            pivots.append(j)
    kernel_ref = []
    for f in (j for j in range(len(cols)) if j not in pivots):
        earlier = [c for c in pivots if c < f]
        hits = []
        for x in itertools.product(range(p), repeat=len(earlier)):
            v = [0] * len(cols)
            v[f] = 1
            for c, xc in zip(earlier, x):
                v[c] = xc
            if combination(cols, v, nrows, p) == (0,) * nrows:
                hits.append(v)
        assert len(hits) == 1
        kernel_ref.append(hits[0])
    on_pivots = {}
    for x in itertools.product(range(p), repeat=len(pivots)):
        v = [0] * len(cols)
        for c, xc in zip(pivots, x):
            v[c] = xc
        y = combination(cols, v, nrows, p)
        assert y not in on_pivots  # the pivot columns are independent
        on_pivots[y] = v
    return pivots, kernel_ref, on_pivots


def fraction_rref(rows, ncols):
    """Reduced row echelon form over Fractions, pivots lowest column first."""
    rows = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def rational_reference(cols, nrows):
    """Pivots and each free column's kernel vector from the Fraction RREF."""
    ncols = len(cols)
    rref, pivots = fraction_rref([[c[i] for c in cols] for i in range(nrows)], ncols)
    kernel_ref = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -rref[i][f]
        kernel_ref.append(v)
    return pivots, kernel_ref


def rational_solve_reference(cols, nrows, y):
    """(consistent, x): x solves with every free variable zero."""
    ncols = len(cols)
    rref, pivots = fraction_rref([[c[i] for c in cols] + [y[i]] for i in range(nrows)], ncols + 1)
    if pivots and pivots[-1] == ncols:
        return False, None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = rref[i][ncols]
    return True, x


def check_pivots_and_kernel(m, pivots, kernel_ref):
    factory, vecs = independence_tracker(m)
    tracker = factory()
    assert [j for j in range(m.ncols) if tracker.insert(vecs[j])] == pivots
    ker = kernel(m)
    assert len(ker) == len(kernel_ref)
    for v, ref in zip(ker, kernel_ref):
        if m.field.kind == "gfp":
            assert isinstance(v, np.ndarray) and v.dtype == np.int64
        else:
            assert all(isinstance(e, Fraction) for e in v)
        assert list(v) == ref


@pytest.mark.parametrize("field", (GF3, GF5), ids=str)
def test_gfp_canonical_forms_match_reference(field):
    rng = random.Random(141 + field.p)
    p = field.p
    for t in range(60):
        nrows, cols = random_dense(rng, field)
        pivots, kernel_ref, on_pivots = gfp_reference(cols, nrows, p)
        m = dense_matrix(field, nrows, cols)
        check_pivots_and_kernel(m, pivots, kernel_ref)
        for u in range(2):
            if (t + u) % 2:  # y in the column space
                y = combination(cols, [rng.randrange(p) for _ in cols], nrows, p)
            else:
                y = tuple(rng.randrange(p) for _ in range(nrows))
            rk, consistent, x = solve_full(m, list(y))
            assert (rk, consistent) == (len(pivots), y in on_pivots)
            if consistent:
                assert isinstance(x, np.ndarray) and x.dtype == np.int64
                assert x.tolist() == on_pivots[y]
            else:
                assert x is None


def test_rational_canonical_forms_match_reference():
    rng = random.Random(151)
    for t in range(80):
        nrows, cols = random_dense(rng, RAT)
        pivots, kernel_ref = rational_reference(cols, nrows)
        m = dense_matrix(RAT, nrows, cols)
        check_pivots_and_kernel(m, pivots, kernel_ref)
        for u in range(2):
            if (t + u) % 2:  # y in the column space
                coeffs = [rng.choice(RATIONAL_ENTRIES) for _ in cols]
                y = [sum((x * c[i] for x, c in zip(coeffs, cols)), Fraction(0)) for i in range(nrows)]
            else:
                y = [rng.choice(RATIONAL_ENTRIES) for _ in range(nrows)]
            consistent_ref, x_ref = rational_solve_reference(cols, nrows, y)
            rk, consistent, x = solve_full(m, y)
            assert (rk, consistent) == (len(pivots), consistent_ref)
            if consistent:
                assert all(isinstance(e, Fraction) for e in x)
                assert x == x_ref
            else:
                assert x is None


def test_gf2_vector_from_integer_arrays():
    rng = np.random.default_rng(5)
    arrays = [
        rng.integers(-128, 128, 40, dtype=np.int8),
        rng.integers(-(1 << 62), 1 << 62, 40, dtype=np.int64),
        rng.integers(0, 1 << 64, 40, dtype=np.uint64, endpoint=False),
        rng.integers(0, 2, 40).astype(bool),
        np.zeros(0, np.int64),
    ]
    for arr in arrays:
        got = vector(GF2, arr)
        assert got.dtype == np.uint8 and got.shape == arr.shape
        # the element loop, which numpy scalars pass through
        assert got.tolist() == [int(v) & 1 for v in arr], arr.dtype
        assert got is not arr
    src = np.array([1, 3, 4], np.uint8)
    out = vector(GF2, src)
    out[0] = 0
    assert src.tolist() == [1, 3, 4]  # always a copy


def test_gf2_vector_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        vector(GF2, np.array([0.0, 1.0]))
    with pytest.raises(TypeError):
        vector(GF2, [1, 0.0])
    with pytest.raises(TypeError):
        vector(GF2, [True, 0])
    with pytest.raises(TypeError):
        vector(GF2, np.array([1.5, 1.0], np.float32))


ENTRIES = [
    0, 1, 3, -1, -7, 10**30 + 1, "7", "-4", Fraction(4), Fraction(-6, 2), Fraction(1, 2),
    1.0, 0.5, np.float32(0.5), np.float16(1.5), True, False,
]


def entry_outcome(f):
    try:
        return "ok", [v if isinstance(v, Fraction) else int(v) for v in f()]
    except Exception as exc:  # the type is what must agree
        return "raises", type(exc)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
@pytest.mark.parametrize("v", ENTRIES, ids=repr)
def test_every_entry_point_checks_an_entry_alike(field, v):
    got = entry_outcome(lambda: vector(field, [v]))
    assert entry_outcome(lambda: Matrix.from_rows(field, [[v]]).row(0)) == got
    # vandermonde's first row is all ones and its second the nodes
    assert entry_outcome(lambda: vandermonde(field, 2, [v]).column(0)[1:]) == got
    ones = ("ok", [1]) if got[0] == "ok" else got
    assert entry_outcome(lambda: vandermonde(field, 1, [v]).column(0)) == ones


def test_non_integer_entries_are_rejected_over_finite_fields():
    for field in (GF2, GF3):
        with pytest.raises(ValueError):
            vector(field, [Fraction(1, 2)])
        with pytest.raises(TypeError):
            vandermonde(field, 2, [1.0, 0])
        with pytest.raises(ValueError):
            vandermonde(field, 2, [Fraction(3, 2), 0])
        # numpy floats are refused too, not truncated
        with pytest.raises(TypeError):
            vector(field, [np.float32(1.5)])
        with pytest.raises(TypeError):
            Matrix.from_rows(field, [[np.float32(0.5), 1]])
        with pytest.raises(TypeError):
            vandermonde(field, 2, [np.float16(1.5)])


@pytest.mark.parametrize("field", (GF2, GF3, RAT), ids=str)
@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (3, 0), (4, 6), (70, 130)])
def test_write_then_read_matrix_round_trips(field, shape):
    rows = random_rows(random.Random(shape[0] * 1000 + shape[1]), *shape, field)
    m = Matrix.from_rows(field, rows) if shape[0] else Matrix.zeros(field, *shape)
    buf = io.StringIO()
    write_matrix(m, buf)
    back = read_matrix(io.StringIO(buf.getvalue()))
    assert back == m and (back.nrows, back.ncols) == shape


def test_read_matrix_reduces_tokens_mod_q():
    assert read_matrix(io.StringIO("1 4 gf2\n3 -1 2 -4\n")).to_rows() == [[1, 1, 0, 0]]
    big = 10**30 + 4
    assert read_matrix(io.StringIO(f"1 3 gfp:5\n7 -1 {big}\n")).to_rows() == [[2, 4, big % 5]]


# ---------------------------------------------------------------- SC and BP
# A matrix made of transform rows decodes by successive cancellation (SC)
# over GF(2), and answers columns_independent by peeling (BP) on the
# butterfly graph plus elimination of what peeling leaves open.  SC's
# leaf flags are the reference: a set whose flagged leaves are all
# frozen is independent.  BP must certify every such set, and BP plus
# the residue must give elimination's verdict.


def transform_rows_matrix(n, frozen, field):
    """Rows i in ``frozen`` (0-based) of the n x n transform, entry by entry."""
    return Matrix.from_rows(field, [[int(i & ~j == 0) for j in range(n)] for i in frozen])


def reference_sc_leaves(flags, n):
    """SC leaf flags, recursively on lists: split by the top index bit.

    The flags may be 0/1 ints or, entry by entry, arrays of them."""
    if n == 1:
        return list(flags)
    h = n // 2
    a, b = flags[:h], flags[h:]
    return reference_sc_leaves([x | y for x, y in zip(a, b)], h) + reference_sc_leaves(
        [x & y for x, y in zip(a, b)], h
    )


def sc_certified(n, frozen):
    """Per erasure pattern f (bit j = column j): every SC leaf is unflagged or frozen."""
    f = np.arange(1 << n)
    leaves = reference_sc_leaves([f >> j & 1 for j in range(n)], n)
    open_leaves = [leaves[i] for i in range(n) if i not in set(frozen)]
    return ~np.any(open_leaves, axis=0) if open_leaves else f >= 0


def frozen_sets(n, tops, seed):
    """The top:m sets of check_matrix(n, 1/2, .) (0-based) and as many random sets."""
    sets = [
        [i - 1 for i in check_matrix(n, Fraction(1, 2), SelectionSpec.top(m)).rows]
        for m in tops
    ]
    # with row 0 (all ones) free, one erasure flags leaf 0 and nothing
    # but the empty set is certified, so the random sets keep row 0
    rng = random.Random(seed)
    sets += [[0] + rng.sample(range(1, n), rng.randrange(n - 1)) for _ in tops]
    return sets


def mask(idx):
    return sum(1 << i for i in idx)


def eliminated_independent(m, cols):
    make_basis, vecs = independence_tracker(m)
    basis = make_basis()
    return all(basis.insert(vecs[j]) for j in cols)


def test_sc_decode_succeeds_exactly_on_certified_leaves():
    # on the zero codeword SC leaves the lane unfailed, with the word 0,
    # exactly when every flagged leaf is frozen
    rng = random.Random(3)
    for n in (1, 2, 4, 8, 16):
        for frozen in [list(range(n)), []] + [rng.sample(range(n), rng.randrange(n + 1)) for _ in range(6)]:
            certified = sc_certified(n, frozen)
            pats = range(1 << n) if n <= 8 else rng.sample(range(1 << n), 3000)
            for f in pats:
                word, failed = _sc_decode(0, f, _sc_plan(mask(frozen), n))
                got = None if failed else word
                assert failed in (0, 1) and got == (0 if certified[f] else None), (n, frozen, f)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
def test_erasure_decode_takes_each_fields_own_word_and_leaves_it_alone(field):
    # the decoder core reads the word in the field's own form, ignores the
    # flagged slots, returns the codeword in that form and does not write
    # into the word it was given (the trial compares against it)
    pcm = fields._transform_rows(field, 8, [0, 1, 2, 4])
    gen = fields._generator(pcm)[0]
    rng = random.Random(88)
    f = 0b10010010
    for _ in range(10):
        c = fields.vector(field, [0] * 8)
        for r in gen.to_rows():
            a = rng.randrange(1, 3)
            c = fields.vector(field, [x + a * v for x, v in zip(c, r)])
        junk = [v + 1 if f >> j & 1 else v for j, v in enumerate(c)]
        if field == GF2:
            want, y = _bits_int(c), _bits_int(fields.vector(field, junk))
        else:
            want, y = c, fields.vector(field, junk)
        before = y if field == GF2 else (y.copy() if isinstance(y, np.ndarray) else list(y))
        (status,), word = fields._erasure_decode(pcm, y if field == GF2 else [y], f, 1)
        word = word if field == GF2 else word[0]
        assert status == "decoded" and type(word) is type(want)
        assert fields.vectors_equal(word, want) and fields.vectors_equal(y, before)
        assert word is not y
    failed = 0 if field == GF2 else [None]
    assert fields._erasure_decode(pcm, y if field == GF2 else [y], 0b11111, 1) == (["ambiguous"], failed)


def test_sc_node_plan_matches_subset_solve_exhaustive_n8():
    # all 256 frozen masks and all 256 erasure patterns: SC on the cached
    # node plan returns the codeword exactly on the SC-certified patterns,
    # the word _solve_columns gives, and None elsewhere, whether the
    # erased slots of the received word are zeroed or hold junk; the
    # decoder core gives _solve_columns's verdict and word on every one
    n = 8
    rng = random.Random(808)
    kinds = set()
    for frozen_mask in range(1 << n):
        frozen = [i for i in range(n) if frozen_mask >> i & 1]
        pcm = fields._transform_rows(GF2, n, frozen)
        assert pcm._frozen_rows() == frozen_mask
        plan = _sc_plan(frozen_mask, n)
        kinds.add(plan[0])
        gen_ints = fields._generator(pcm)[1]
        certified = sc_certified(n, frozen)
        for f in range(1 << n):
            c = 0
            for g in gen_ints:
                c ^= g * rng.randrange(2)
            y = c & ~f
            idx = [j for j in range(n) if f >> j & 1]
            rk, ok, x = fields._solve_columns(pcm, idx, matvec(pcm, _int_bits(y, n)))
            assert ok
            want = None
            if rk == len(idx):
                want = y | sum(1 << j for i, j in enumerate(idx) if x[i])
                assert want == c
            for received in (y, y | (rng.randrange(1 << n) & f)):
                word, failed = _sc_decode(received, f, plan)
                got = None if failed else word
                assert got == (want if certified[f] else None), (frozen_mask, f, received)
            status = "decoded" if want is not None else "ambiguous"
            assert fields._erasure_decode(pcm, y, f, 1) == ([status], want or 0), (frozen_mask, f)
    assert kinds == {_butterfly._RATE0, _butterfly._RATE1, _butterfly._REP, _butterfly._SPC, _butterfly._MIXED}


def test_laned_sc_equals_one_lane_sc_and_subset_solve_exhaustive():
    # every frozen mask and every erasure pattern at n <= 8, with junk in
    # the erased slots, run in blocks of 1, 2, 3 and 7 lanes: each lane's
    # failed bit, and its word where it did not fail, equal one-lane SC,
    # and the decoder's status and word for each lane equal _solve_columns
    # (SC-rejected lanes are solved inside the block; the one-lane
    # decoder is checked against _solve_columns at n = 8 above)
    rng = random.Random(1701)
    for n in (1, 2, 4, 8):
        for frozen_mask in range(1 << n):
            pcm = fields._transform_rows(GF2, n, [i for i in range(n) if frozen_mask >> i & 1])
            gen_ints = fields._generator(pcm)[1]
            cases = []
            for f in range(1 << n):
                c = 0
                for g in gen_ints:
                    c ^= g * rng.randrange(2)
                idx = [j for j in range(n) if f >> j & 1]
                rk, ok, x = fields._solve_columns(pcm, idx, matvec(pcm, _int_bits(c & ~f, n)))
                assert ok
                want = c if rk == len(idx) else None
                if want is not None:
                    assert c & ~f | sum(1 << j for i, j in enumerate(idx) if x[i]) == c
                received = c & ~f | rng.getrandbits(n) & f
                status = "decoded" if want is not None else "ambiguous"
                cases.append((received, f, status, want or 0, *_sc_decode(received, f, _sc_plan(frozen_mask, n, 1))))
            rng.shuffle(cases)
            for lanes in (1, 2, 3, 7):
                for start in range(0, len(cases), lanes):
                    block = cases[start : start + lanes]
                    size = len(block)
                    y, f = (interleaved([case[i] for case in block], n) for i in (0, 1))
                    word, failed = _sc_decode(y, f, _sc_plan(frozen_mask, n, size))
                    for t, (_, ft, _, _, w1, failed1) in enumerate(block):
                        assert failed >> t & 1 == failed1, (n, frozen_mask, ft, lanes)
                        assert failed1 or lane(word, t, size, n) == w1, (n, frozen_mask, ft, lanes)
                    assert not failed >> size
                    if lanes > 1:
                        statuses, words = fields._erasure_decode(pcm, y, f, size)
                        assert statuses == [case[2] for case in block] and not words >> n * size
                        assert [lane(words, t, size, n) for t in range(size)] == [case[3] for case in block]


def test_laned_sc_blocks_at_n1024():
    # random blocks of criterion 7's code in 1, 4 and 64 lanes, around the
    # rate where SC starts to fail: every lane equals the one-lane run
    cm = check_matrix(1024, Fraction(2, 5), SelectionSpec.top(614))
    pcm, n = cm.matrix, 1024
    rng = np.random.default_rng(1024)
    frozen = pcm._frozen_rows()
    one = _sc_plan(frozen, n, 1)
    seen = set()
    for lanes in (1, 4, 64):
        msgs = rng.integers(0, 2, (lanes, n - pcm.nrows))
        sent = [_polar_block(frozen, n, msg[:, None]) for msg in msgs]
        assert _polar_block(frozen, n, msgs.T) == interleaved(sent, n)
        flags = [_bits_int(rng.random(n) < rng.choice([0.3, 0.46, 0.6])) for _ in range(lanes)]
        junk = [_bits_int(rng.integers(0, 2, n)) & f for f in flags]
        y, f = interleaved([c ^ j for c, j in zip(sent, junk)], n), interleaved(flags, n)
        word, failed = _sc_decode(y & ~f, f, _sc_plan(frozen, n, lanes))
        statuses, words = fields._erasure_decode(pcm, y, f, lanes)
        for t in range(lanes):
            w1, failed1 = _sc_decode(sent[t] & ~flags[t], flags[t], one)
            assert failed >> t & 1 == failed1 and (failed1 or lane(word, t, lanes, n) == w1 == sent[t])
            (status,), w = fields._erasure_decode(pcm, sent[t] ^ junk[t], flags[t], 1)
            assert statuses[t] == status and lane(words, t, lanes, n) == w
            assert w == (sent[t] if status == "decoded" else 0)
            seen.add((bool(failed1), status))
    assert {(False, "decoded"), (True, "decoded"), (True, "ambiguous")} <= seen


def test_sc_certificate_is_sound_gf2_n16():
    n = 16
    counts = []
    for frozen in frozen_sets(n, (4, 8, 10, 12), seed=1601):
        m = transform_rows_matrix(n, frozen, GF2)
        certified = np.flatnonzero(sc_certified(n, frozen)).tolist()
        for f in certified:
            assert eliminated_independent(m, [j for j in range(n) if f >> j & 1]), (frozen, f)
        counts.append(len(certified))
    assert min(counts) > 1  # every set certifies more than the empty set


def test_bp_certifies_every_sc_certified_set_n8():
    # exhaustive: all 256 frozen sets, all 256 erasure patterns
    n, more = 8, 0
    table = {f: [j for j in range(n) if f >> j & 1] for f in range(1 << n)}
    for frozen_mask in range(1 << n):
        certified = sc_certified(n, table[frozen_mask])
        for f in range(1 << n):
            bp = not f & ~_bp_known(f, frozen_mask, n)
            assert bp or not certified[f], (frozen_mask, f)
            more += bp and not certified[f]
    assert more  # peeling certifies sets that SC leaves open


def interleaved(vs, n):
    """The lane block of the n-bit ints vs: bit j of vs[t] at j * len(vs) + t."""
    bits = ["0"] * (n * len(vs))
    for t, v in enumerate(vs):
        bits[t :: len(vs)] = format(v, f"0{n}b")[::-1]
    return int("".join(bits)[::-1], 2)


def lane(block, t, lanes, n):
    """Lane t of a block of ``lanes`` lanes, as an n-bit int."""
    return int(format(block, f"0{n * lanes}b")[::-1][t::lanes][:n][::-1], 2)


def test_array_and_int_transform_bodies_agree():
    # the transform has one body per representation: at q = 2 the array
    # body on each lane equals that lane of the int body on the block
    rng = np.random.default_rng(1618)
    for n in (1 << e for e in range(11)):
        for lanes in (1, 3, 64):
            bits = rng.integers(0, 2, (lanes, n), dtype=np.uint8)
            x = _gf2_transform(interleaved([_bits_int(b) for b in bits], n), n, lanes)
            for t, b in enumerate(bits):
                want = _butterfly._array_transform(b, 2)
                assert np.array_equal(_int_bits(lane(x, t, lanes, n), n), want), (n, lanes, t)


def test_laned_peeling_and_transform_equal_the_per_lane_ones():
    # coordinate j of lane t is bit j * lanes + t; every butterfly step
    # is lane-wise, and peeling's fixpoint does not depend on how many
    # sweeps the other lanes need, so each lane gets its own known mask
    # bit for bit;
    # ragged blocks (lane counts that are not powers of two), empty and
    # full erased sets, and every size from n = 1 to 1024; and peeling
    # from the frozen rows' own masks reaches the fixpoint peeling from
    # nothing does
    rng = random.Random(1604)
    for n in (1 << e for e in range(11)):
        full = (1 << n) - 1
        frozen = rng.getrandbits(n) & rng.getrandbits(n)
        sets = [0, full] + [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(12)]
        sets += [rng.getrandbits(n) for _ in range(4)]
        rng.shuffle(sets)
        for lanes in (1, 2, 3, 7, len(sets)):
            for start in range(0, len(sets), lanes):
                block = sets[start : start + lanes]
                f = interleaved(block, n)
                known = _bp_known(f, frozen, n, len(block))
                x = _gf2_transform(f, n, len(block))
                for t, v in enumerate(block):
                    assert lane(known, t, len(block), n) == _bp_known(v, frozen, n), (n, lanes, t)
                    assert lane(x, t, len(block), n) == _gf2_transform(v, n), (n, lanes, t)
                assert not known >> len(block) * n and not x >> len(block) * n
        for v in sets:
            stages = [full & ~v] + [0] * (n.bit_length() - 1)
            stages[-1] |= frozen
            assert flood(stages, n, 1)[0] == _bp_known(v, frozen, n)


# Peeling by flooding, the reference for _bp_known's descent of the node
# tree: sweep the butterfly layers forward and back until nothing changes.


def flood(stages, n, lanes):
    """Flooding sweeps on the stage masks ``stages`` (stage 0 is x, the
    last is u), in place: at every butterfly any two known nodes give the
    third, until nothing changes or all of x is known."""
    full = (1 << n * lanes) - 1
    layers = list(enumerate(_butterfly._sc_masks(n, lanes)))
    changed = True
    while changed and stages[0] != full:
        changed = False
        for k, (h, lo) in layers:
            old, new = stages[k], stages[k + 1]
            olo, nlo, hi = old & lo, new & lo, ((old | new) >> h) & lo
            nlo |= olo & hi
            olo |= nlo & hi
            hi = (hi | (nlo & olo)) << h
            if olo | hi != old or nlo | hi != new:
                stages[k], stages[k + 1] = olo | hi, nlo | hi
                changed = True
        layers.reverse()
    return stages


def flooding_known(f, frozen, n, lanes=1):
    """x's known mask by flooding: first from the frozen rows alone, then
    with x known off ``f`` as well (at n = 1 stage 0 is u, so the frozen
    mask stays in it)."""
    stages = [0] * n.bit_length()
    stages[-1] = _butterfly._lane_copies(frozen, n, lanes)
    stages = flood(stages, n, lanes)
    stages[0] |= (1 << n * lanes) - 1 & ~f
    return flood(stages, n, lanes)[0]


def mixed_nodes(plan, frozen, m):
    """(node, its frozen mask, its size) for every mixed node of a plan."""
    if plan[0] == _butterfly._MIXED:
        h = m >> 1
        yield plan, frozen, m
        yield from mixed_nodes(plan[3], frozen & (1 << h) - 1, h)
        yield from mixed_nodes(plan[4], frozen >> h, h)


def check_all_erased_fields(frozen, n, lanes):
    """Check that each mixed node of the plan carries what flooding leaves
    open from all of its x erased; return how many nodes were checked."""
    seen = 0
    for node, fm, m in mixed_nodes(_sc_plan(frozen, n, lanes), frozen, n):
        every = (1 << m * lanes) - 1
        assert node[5] == every ^ flooding_known(every, fm, m, lanes), (frozen, n, lanes, m)
        seen += 1
    return seen


def test_peeling_by_recursion_equals_flooding_exhaustive():
    # every frozen mask and every erased set at n <= 8 in one lane, and
    # every block of 2 and 3 lanes at n = 4
    nodes = 0
    for n in (1, 2, 4, 8):
        for frozen in range(1 << n):
            nodes += check_all_erased_fields(frozen, n, 1)
            for f in range(1 << n):
                assert _bp_known(f, frozen, n) == flooding_known(f, frozen, n), (n, frozen, f)
    n = 4
    for frozen in range(1 << n):
        for lanes in (2, 3):
            nodes += check_all_erased_fields(frozen, n, lanes)
            for block in itertools.product(range(1 << n), repeat=lanes):
                f = interleaved(block, n)
                assert _bp_known(f, frozen, n, lanes) == flooding_known(f, frozen, n, lanes), (frozen, block)
    assert nodes


@pytest.mark.parametrize(
    "n,s,top", [(16, Fraction(1, 2), 6), (64, Fraction(1, 2), 26), (256, Fraction(1, 2), 102), (1024, Fraction(2, 5), 614)]
)
def test_peeling_by_recursion_equals_flooding_random_and_structured(n, s, top):
    # random frozen masks, none, all and the paper's rows, against erased
    # sets that are empty, full, a half, every other coordinate, a window
    # or random at several densities, in blocks of 1, 3 and 64 lanes
    rng = random.Random(n)
    full = (1 << n) - 1
    evens = full // 3
    polar = mask(i - 1 for i in check_matrix(n, s, SelectionSpec.top(top)).rows)
    frozens = [0, full, rng.getrandbits(n), rng.getrandbits(n) & rng.getrandbits(n), polar]
    start = rng.randrange(n // 2)
    sets = [0, full, full >> n // 2, full & ~(full >> n // 2), evens, evens << 1, (full >> n // 2) << start]
    for p in (0.1, 0.3, 0.4, 0.5, 0.6, 0.8, 0.95):
        sets.append(sum(1 << j for j in range(n) if rng.random() < p))
    nodes = 0
    for frozen in frozens:
        for lanes in (1, 3, 64):
            nodes += check_all_erased_fields(frozen, n, lanes)
            blocks = [sets[i : i + lanes] for i in range(0, len(sets), lanes)] if lanes < 64 else []
            blocks += [[rng.choice(sets) for _ in range(lanes)] for _ in range(2)]
            for block in blocks:
                f = interleaved(block, n)
                want = flooding_known(f, frozen, n, len(block))
                assert _bp_known(f, frozen, n, len(block)) == want, (n, frozen, lanes, block)
    assert nodes


def test_bp_residue_verdict_gf2_n16():
    # exhaustive over erasure patterns: BP certifies every SC-certified
    # set, never loses a known coordinate, and the columns it leaves open
    # are independent exactly when the whole set is
    n = 16
    full = (1 << n) - 1
    rng = random.Random(1602)
    seen = set()
    for frozen in frozen_sets(n, (6,), seed=1603):
        m = transform_rows_matrix(n, frozen, GF2)
        certified = sc_certified(n, frozen)
        for f in range(1 << n):
            known = _bp_known(f, mask(frozen), n)
            assert not full & ~f & ~known
            rest = f & ~known
            assert not rest or not certified[f], (frozen, f)
            indep = eliminated_independent(m, [j for j in range(n) if f >> j & 1])
            assert eliminated_independent(m, [j for j in range(n) if rest >> j & 1]) == indep
            seen.add((bool(rest), rest != f, indep))
        for f in rng.sample(range(1 << n), 500):
            cols = ColumnSet.of(j + 1 for j in range(n) if f >> j & 1)
            assert columns_independent(m, cols) == eliminated_independent(m, [j - 1 for j in cols])
    # (some open, some determined, independent): the residue decides
    assert {(True, True, True), (True, True, False), (False, True, True)} <= seen


@pytest.mark.parametrize("field", [GF3, GF5, RAT], ids=str)
def test_sc_certificate_is_sound_n8(field):
    n = 8
    for frozen in frozen_sets(n, (2, 4, 5, 6), seed=801):
        m = transform_rows_matrix(n, frozen, field)
        assert m._frozen_rows() == mask(frozen)
        certified = sc_certified(n, frozen)
        for f in range(1 << n):
            cols = [j for j in range(n) if f >> j & 1]
            indep = eliminated_independent(m, cols)
            assert indep or not certified[f], (frozen, f)
            assert not f & ~_bp_known(f, mask(frozen), n) or not certified[f], (frozen, f)
            assert columns_independent(m, [j + 1 for j in cols]) == indep
        assert certified[1:].any()


@pytest.mark.parametrize(
    "n,s,checks,p", [(256, Fraction(1, 2), 102, 0.30), (256, Fraction(1, 2), 102, 0.35), (1024, Fraction(2, 5), 614, 0.45)]
)
def test_bp_residue_verdict_random_sets(n, s, checks, p):
    m = check_matrix(n, s, SelectionSpec.top(checks)).matrix
    rng = np.random.default_rng(n + checks)
    kinds = set()
    for _ in range(30):
        erased = np.flatnonzero(rng.random(n) < p).tolist()
        indep = eliminated_independent(m, erased)
        assert columns_independent(m, ColumnSet.of(j + 1 for j in erased)) == indep
        rest = mask(erased) & ~_bp_known(mask(erased), m._frozen_rows(), n)
        kinds.add((rest == 0, rest == mask(erased), indep))
    assert (False, False, True) in kinds  # partly open, and the residue answers


def test_oracle_eliminates_only_the_residue(monkeypatch):
    # sets that peeling leaves partly open: elimination inserts the open
    # columns alone, one insert each, and never the whole set
    m = check_matrix(256, Fraction(1, 2), SelectionSpec.top(102)).matrix
    frozen = m._frozen_rows()
    rng = np.random.default_rng(35)
    calls = []
    real_insert = core.insert

    def counting_insert(*args):
        calls.append(1)
        return real_insert(*args)

    monkeypatch.setattr(core, "insert", counting_insert)
    checked = 0
    while checked < 5:
        erased = np.flatnonzero(rng.random(256) < 0.35).tolist()
        rest = mask(erased) & ~_bp_known(mask(erased), frozen, 256)
        if rest in (0, mask(erased)) or not eliminated_independent(m, erased):
            continue
        calls.clear()
        assert columns_independent(m, ColumnSet.of(j + 1 for j in erased))
        assert len(calls) == rest.bit_count() < len(erased)
        checked += 1


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
def test_frozen_rows_recognized_from_entries(field):
    cm = check_matrix(64, Fraction(1, 2), SelectionSpec.top(26), field)
    mask = sum(1 << (i - 1) for i in cm.rows)
    assert cm.matrix._frozen_rows() == mask
    buf = io.StringIO()
    write_matrix(cm.matrix, buf)
    buf.seek(0)
    assert read_matrix(buf)._frozen_rows() == mask
    # row order and repeated rows do not change the frozen set
    rows = cm.matrix.to_rows()
    assert Matrix.from_rows(field, rows[::-1] + rows[:1])._frozen_rows() == mask

    def edited(edit):
        r = [list(row) for row in rows]
        edit(r)
        return Matrix.from_rows(field, r)._frozen_rows()

    def last_entry(value):  # every transform row is 1 in the last column
        def edit(r):
            r[0][63] = value

        return edit

    def swap(r):
        j = next(j for j in range(1, 64) if any(row[0] != row[j] for row in r))
        for row in r:
            row[0], row[j] = row[j], row[0]

    def zero_row(r):
        r.append([0] * 64)

    def truncate(r):
        for row in r:
            del row[48:]

    edits = [last_entry(0), swap, zero_row, truncate]
    if field == GF3:
        edits.append(last_entry(2))
    if field == RAT:
        edits.append(last_entry(Fraction(1, 2)))
    for edit in edits:
        assert edited(edit) is None, edit.__name__


def test_certified_pattern_skips_elimination(monkeypatch):
    cm = check_matrix(1024, Fraction(2, 5), SelectionSpec.top(614))
    rng = np.random.default_rng(7)
    erased = np.flatnonzero(rng.random(1024) < 0.4)
    f = mask(int(j) for j in erased)
    assert not f & ~_bp_known(f, mask(i - 1 for i in cm.rows), 1024)  # BP-certified
    assert eliminated_independent(cm.matrix, erased.tolist())

    calls = []
    real_insert = core.insert

    def counting_insert(*args):
        calls.append(1)
        return real_insert(*args)

    monkeypatch.setattr(core, "insert", counting_insert)
    assert columns_independent(cm.matrix, ColumnSet.of(erased + 1))
    assert not calls
    other = Matrix.from_rows(GF2, random_rows(random.Random(5), 614, 1024, GF2))
    assert columns_independent(other, ColumnSet.of(erased[:100] + 1))
    assert calls


@pytest.mark.parametrize("lanes", [1, 3, 64])
def test_flags_independent_block_equals_each_lane(lanes):
    # the laned oracle answers every lane of a block as columns_independent
    # answers that lane's set alone: on transform rows (peeling, then a
    # residue) over GF(2) and GF(3), and on a matrix of other rows
    rng = np.random.default_rng(lanes)
    top26 = SelectionSpec.top(26)
    mats = [
        check_matrix(64, Fraction(1, 2), top26).matrix,
        check_matrix(64, Fraction(1, 2), top26, GF3).matrix,
        Matrix.from_rows(GF2, rng.integers(0, 2, (12, 64)).tolist()),
    ]
    rates = np.linspace(0.05, 0.6, lanes)
    for m in mats:
        flags = (rng.random((m.ncols, lanes)) < rates).astype(np.uint8)
        want = [columns_independent(m, (np.flatnonzero(flags[:, t]) + 1).tolist()) for t in range(lanes)]
        got = fields._flags_independent(m, _bits_int(flags.reshape(-1)), lanes)
        if not isinstance(got, int):  # a list of verdicts reads as the same lane mask
            got = sum(bool(v) << t for t, v in enumerate(got))
        assert [bool(got >> t & 1) for t in range(lanes)] == want
        assert 0 < got.bit_count() < lanes or lanes == 1


def sparse_top_matrices(n):
    """A check matrix of n columns and a random GF(2) matrix with rows of
    every weight, both with 2n/5 rows."""
    rng = np.random.default_rng(n)
    nrows = 2 * n // 5
    dense = rng.random((nrows, n)) < rng.random((nrows, 1))
    return [check_matrix(n, Fraction(1, 2), SelectionSpec.top(nrows)).matrix, Matrix.from_rows(GF2, dense.astype(int).tolist())]


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_sparse_top_ints_are_the_rows_by_weight(n):
    for m in sparse_top_matrices(n):
        dense = np.array(m.to_rows(), np.uint8).reshape(m.nrows, n)
        weight = dense.sum(axis=1, dtype=int).tolist()
        order = sorted(range(m.nrows), key=lambda i: -weight[i])  # a stable sort
        got_order, ints = m._column_ints()
        assert got_order.tolist() == order
        assert ints == [_bits_int(dense[order, j]) for j in range(n)]
        assert len(set(weight)) > 1


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_sparse_top_row_order_changes_no_answer(n):
    # against the columns in row order, built here from the entries:
    # random sets at rates around the row rate give the same independence
    # (rank_packed) through the sparse-top ints, a batch insert equals
    # per-vector inserts, the kernel relations and solves equal echelon's
    # and solve_packed's, matvec is the dense product mod 2, and the
    # decoder's statuses and words equal _solve_columns's, on codewords
    # and on noise
    rng = np.random.default_rng(n + 1)
    for m in sparse_top_matrices(n):
        make_basis, vecs = independence_tracker(m)
        dense = np.array(m.to_rows(), np.uint8).reshape(m.nrows, n)
        natural = [_bits_int(dense[:, j]) for j in range(n)]
        verdicts = set()
        for rate in np.linspace(0.05, 0.7, 14):
            idx = np.flatnonzero(rng.random(n) < rate).tolist()
            batch, one = make_basis(), make_basis()
            count = batch.insert_prefix([vecs[j] for j in idx])
            assert count == next((i for i, j in enumerate(idx) if not one.insert(vecs[j])), len(idx))
            assert len(batch) == len(one) == count
            indep = core.rank_packed([natural[j] for j in idx]) == len(idx)
            assert (count == len(idx)) == indep == columns_independent(m, ColumnSet.of(j + 1 for j in idx))
            verdicts.add(indep)
        assert verdicts == {True, False}

        gen = fields._generator(m)[1]
        assert list(gen) == core.echelon(natural)[1]
        for rate in (0.0, 0.1, 0.5, 1.0):
            x = (rng.random(n) < rate).astype(np.uint8)
            assert matvec(m, x).tolist() == (dense.astype(int) @ x % 2).tolist()
        solved = set()
        for t, rate in enumerate((1.0, 0.9, 0.6, 0.4, 0.2, 0.05)):
            idx = np.flatnonzero(rng.random(n) < rate).tolist()
            y = matvec(m, (rng.random(n) < 0.5).astype(np.uint8)) if t % 2 else rng.integers(0, 2, m.nrows).astype(np.uint8)
            rk, ok, x = core.solve_packed([natural[j] for j in idx], _bits_int(y), m.nrows)
            got = fields.solve_full(m, y) if len(idx) == n else fields._solve_columns(m, idx, y)
            assert got[:2] == (rk, ok)
            if ok:
                assert got[2].tolist() == _int_bits(x, len(idx)).tolist()
                assert (dense[:, idx].astype(int) @ got[2] % 2).tolist() == y.tolist()
            else:
                assert got[2] is None
            solved.add(ok)
        assert solved == {True, False}

        words, flags, want = [], [], []
        for t, rate in enumerate(np.linspace(0.05, 0.7, 12)):
            c = 0
            for g in gen:
                c ^= g * int(rng.integers(2))
            y = c if t % 3 else int(_bits_int(rng.integers(0, 2, n).astype(np.uint8)))
            f = _bits_int((rng.random(n) < rate).astype(np.uint8))
            idx = [j for j in range(n) if f >> j & 1]
            rk, ok, x = fields._solve_columns(m, idx, matvec(m, _int_bits(y & ~f, n)))
            if not ok:
                want.append(("inconsistent", 0))
            elif rk < len(idx):
                want.append(("ambiguous", 0))
            else:
                want.append(("decoded", y & ~f | sum(1 << j for i, j in enumerate(idx) if x[i])))
            words.append(y)
            flags.append(f)
        for lanes in (1, 4):
            for start in range(0, len(want), lanes):
                block = want[start : start + lanes]
                size = len(block)
                y, f = interleaved(words[start : start + size], n), interleaved(flags[start : start + size], n)
                statuses, got = fields._erasure_decode(m, y, f, size)
                assert statuses == [status for status, _ in block]
                assert [lane(got, t, size, n) for t in range(size)] == [word for _, word in block]
        assert {status for status, _ in want} == {"decoded", "ambiguous", "inconsistent"}


@pytest.mark.parametrize("field", (GF2, GF3, RAT), ids=str)
def test_batch_insert_equals_per_vector_inserts(field):
    # from empty and from a partly filled tracker, on sets with and
    # without a dependent vector, repeated and zero vectors included
    rng = random.Random(2525)
    for _ in range(60):
        nrows, ncols = rng.randrange(1, 8), rng.randrange(0, 12)
        m = Matrix.from_rows(field, random_rows(rng, nrows, ncols, field))
        make_basis, vecs = independence_tracker(m)
        batch, one = make_basis(), make_basis()
        for j in range(rng.randrange(3)):
            if ncols:
                v = vecs[rng.randrange(ncols)]
                assert batch.insert(v) == one.insert(v)
        idx = [rng.randrange(ncols) for _ in range(rng.randrange(ncols + 1))] if ncols else []
        seq = [vecs[j] for j in idx]
        count = batch.insert_prefix(seq)
        assert count == next((i for i, v in enumerate(seq) if not one.insert(v)), len(seq))
        assert len(batch) == len(one)
        rest = [vecs[j] for j in range(ncols)]
        assert [batch.insert(v) for v in rest] == [one.insert(v) for v in rest]
