"""Transform matrix, check-matrix assembly, rank oracles, and sampling scans."""

import io
import random
from fractions import Fraction

import numpy as np
import pytest

from highgirth import (
    CheckMatrix,
    ColumnSet,
    FieldSpec,
    Matrix,
    SelectionSpec,
    bhattacharyya_sum,
    check_matrix,
    exhaustive_rank_profile,
    expected_rank_oracle,
    full_rank_probability,
    girth_scan,
    independence_probability,
    kernel,
    matvec,
    profile_leaf,
    rank,
    rank_profile,
    read_check_matrix,
    select_rows,
    sierpinski,
    sierpinski_row,
    sierpinski_transform,
    support_failure_expectation,
    vandermonde,
    write_check_matrix,
    write_scan_csv,
)
from highgirth.fields import _transform_rows, columns_independent, vector, vectors_equal
from highgirth.montecarlo import SubStream, _below, threshold_u64
from highgirth.sparse import BernoulliSupport

F = Fraction
GF2 = FieldSpec.gf2()
GF3 = FieldSpec.gfp(3)
GF5 = FieldSpec.gfp(5)
RAT = FieldSpec.rational()
ALL_FIELDS = (GF2, GF3, GF5, RAT)


# ---------------------------------------------------------------- transform

def test_sierpinski_entries():
    # closed form: row i covers column j exactly when i's bits are a subset
    for n in (1, 2, 4, 8, 16):
        m = sierpinski(n)
        rows = m.to_rows()
        for i in range(n):
            for j in range(n):
                assert rows[i][j] == (1 if (i & ~j) == 0 else 0)


def test_sierpinski_unit_upper_triangular():
    for field in (GF2, GF3, RAT):
        m = sierpinski(8, field)
        rows = m.to_rows()
        for i in range(8):
            assert rows[i][i] == 1
            for j in range(i):
                assert rows[i][j] == 0
        assert rank(m) == 8


def test_sierpinski_row_entries_match():
    m = sierpinski(16)
    rows = m.to_rows()
    for i in range(16):
        assert list(sierpinski_row(16, i)) == list(rows[i])


def test_transform_matches_dense_multiply():
    rng = random.Random(12)
    for field in (GF2, GF3, RAT):
        for n in (1, 2, 8, 64, 1024):
            if field.kind == "gf2":
                x = vector(field, [rng.randrange(2) for _ in range(n)])
            elif field.kind == "gfp":
                x = vector(field, [rng.randrange(field.p) for _ in range(n)])
            else:
                x = vector(field, [F(rng.randrange(-5, 6)) for _ in range(n)])
            fast = sierpinski_transform(field, x)
            dense = matvec(sierpinski(n, field), x)
            assert vectors_equal(fast, dense)


def test_transform_involution_gf2():
    rng = random.Random(13)
    for n in (2, 256, 1 << 14, 1 << 16):
        x = vector(GF2, [rng.randrange(2) for _ in range(n)])
        y = sierpinski_transform(GF2, x)
        z = sierpinski_transform(GF2, y)
        assert vectors_equal(x, z)


def test_transform_inverse_other_fields():
    rng = random.Random(14)
    for field in (GF3, RAT):
        for n in (2, 16, 128):
            if field.kind == "gfp":
                x = vector(field, [rng.randrange(field.p) for _ in range(n)])
            else:
                x = vector(field, [F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(n)])
            y = sierpinski_transform(field, x)
            back = sierpinski_transform(field, y, inverse=True)
            assert vectors_equal(x, back)


def row_index_sets(n, rng):
    """Empty, unsorted with repeats, and random index lists with 0 and n - 1."""
    picked = rng.choices(range(n), k=min(n, 9)) + [0, n - 1, n - 1]
    rng.shuffle(picked)
    return [[], [n - 1, 0, n - 1], picked]


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
def test_transform_rows_match_closed_form(field):
    # every size up to 512 crosses the 64-column word boundary of the
    # packed gf2 rows; the references build each entry from i & ~j
    rng = random.Random(77)
    for n in (1 << k for k in range(10)):
        for idx in row_index_sets(n, rng):
            m = _transform_rows(field, n, idx)
            closed = [[int(i & ~j == 0) for j in range(n)] for i in idx]
            assert (m.field, m.nrows, m.ncols) == (field, len(idx), n)
            assert m == Matrix.from_rows(field, closed) if idx else m == Matrix.zeros(field, 0, n)
            assert m.to_rows() == closed == [sierpinski_row(n, i).tolist() for i in idx]


def test_frozen_rows_rejects_a_flip_in_the_second_word():
    for n in (128, 256):
        cm = check_matrix(n, F(1, 2), SelectionSpec.top(n // 2))
        for field in ALL_FIELDS:
            rows = cm.matrix.to_rows()
            assert Matrix.from_rows(field, rows)._frozen_rows() == sum(1 << (i - 1) for i in cm.rows)
            r = next(r for r in range(len(rows)) if rows[r].index(1) < 64)
            for j in (64, 100, 127):
                flipped = [list(row) for row in rows]
                flipped[r][j] ^= 1
                assert Matrix.from_rows(field, flipped)._frozen_rows() is None, (n, field, j)


def test_transform_edge_sizes_and_moduli():
    for field in ALL_FIELDS:
        for inverse in (False, True):
            assert vectors_equal(sierpinski_transform(field, vector(field, [1]), inverse), vector(field, [1]))
    rng = random.Random(15)
    for n in (2, 64, 1024):
        x = vector(GF2, [rng.randrange(2) for _ in range(n)])
        assert vectors_equal(sierpinski_transform(GF2, x, inverse=True), sierpinski_transform(GF2, x))
    big = FieldSpec.gfp(2147483647)
    for n in (2, 64, 1024):
        x = vector(big, [rng.randrange(big.p - 3, big.p) for _ in range(n)])
        y = sierpinski_transform(big, x)
        assert vectors_equal(y, matvec(sierpinski(n, big), x))
        assert vectors_equal(sierpinski_transform(big, y, inverse=True), x)


# ---------------------------------------------------------------- rank oracle

def test_expected_rank_oracle_base_case():
    assert expected_rank_oracle(2, 1, F(1, 2)) == F(3, 4)
    assert expected_rank_oracle(2, 2, F(1, 2)) == 1
    assert expected_rank_oracle(4, 0, F(1, 2)) == 0


def test_oracle_differences_equal_profile():
    # enumeration over all column subsets agrees with the recursion
    for field in (GF2, GF3, RAT):
        for n in (2, 4):
            for s in (F(1, 2), F(1, 3)):
                prof = rank_profile(n, s)
                cum = [expected_rank_oracle(n, i, s, field) for i in range(n + 1)]
                diffs = tuple(cum[i + 1] - cum[i] for i in range(n))
                assert diffs == prof


def test_exhaustive_profile_matches_recursion():
    for field in (GF2, GF3, RAT):
        assert exhaustive_rank_profile(8, F(1, 3), field) == rank_profile(8, F(1, 3))


def test_oracle_rejects_bad_input():
    from highgirth import EnumerationBudget

    with pytest.raises(ValueError):
        expected_rank_oracle(3, 1, F(1, 2))
    with pytest.raises(ValueError):
        expected_rank_oracle(4, 5, F(1, 2))
    with pytest.raises(EnumerationBudget):
        exhaustive_rank_profile(1 << 13, F(1, 2))


# ---------------------------------------------------------------- check matrix

def test_check_matrix_rows_come_from_transform():
    cm = check_matrix(8, F(1, 2), SelectionSpec.top(3))
    assert cm.rows == select_rows(8, F(1, 2), SelectionSpec.top(3))
    got = cm.matrix.to_rows()
    for out_row, idx in zip(got, cm.rows.indices):
        assert list(out_row) == sierpinski_row(8, idx - 1).tolist()
    assert cm.nchecks == 3
    assert cm.code_dimension == 5
    assert cm.field == GF2


def test_check_matrix_full_row_rank():
    for field in (GF2, GF3, RAT):
        cm = check_matrix(16, F(1, 2), SelectionSpec.auto(), field)
        assert rank(cm.matrix) == cm.nchecks


def test_check_matrix_kernel_dimension():
    cm = check_matrix(16, F(1, 2), SelectionSpec.top(12))
    kb = kernel(cm.matrix)
    assert len(kb.vectors) == cm.code_dimension
    z = np.zeros(cm.nchecks, np.uint8)
    for v in kb.vectors:
        assert vectors_equal(matvec(cm.matrix, v), z)


def test_check_matrix_io_roundtrip(tmp_path):
    for field in (GF2, GF3, RAT):
        cm = check_matrix(8, F(2, 5), SelectionSpec.top(4), field)
        path = str(tmp_path / f"h_{field.name().replace(':', '_')}.txt")
        write_check_matrix(cm, path)
        back = read_check_matrix(path)
        assert back.n == cm.n
        assert back.s == cm.s
        assert back.selection == cm.selection
        assert back.rows == cm.rows
        assert back.matrix.to_rows() == cm.matrix.to_rows()


@pytest.mark.parametrize(
    "edit",
    [
        {"selection": {"mode": "top", "count": 3.7}},
        {"selection": {"mode": "top", "count": True}},
        {"selection": {"mode": "top", "count": "3"}},
        {"H": [1, 2, 9]},
    ],
    ids=["count-float", "count-bool", "count-str", "H-out-of-range"],
)
def test_read_check_matrix_refuses_a_bad_sidecar(tmp_path, edit):
    import json

    cm = check_matrix(8, F(1, 2), SelectionSpec.top(3))
    path = str(tmp_path / "h.txt")
    write_check_matrix(cm, path)
    with open(path + ".json") as fh:
        meta = json.load(fh)
    meta.update(edit)
    with open(path + ".json", "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(ValueError):
        read_check_matrix(path)


def test_check_matrix_sidecar_keys(tmp_path):
    import json

    cm = check_matrix(4, F(1, 2), SelectionSpec.auto())
    path = str(tmp_path / "h.txt")
    write_check_matrix(cm, path)
    with open(path + ".json") as fh:
        meta = json.load(fh)
    assert list(meta.keys()) == ["n", "s", "selection", "H"]
    assert meta["H"] == list(cm.rows.indices)


# ---------------------------------------------------------------- sampling

def test_full_rank_probability_extremes():
    cm = check_matrix(8, F(1, 2), SelectionSpec.top(3))
    assert full_rank_probability(cm, 1, 64, 5).estimate == 1.0
    assert full_rank_probability(cm, 0, 64, 5).estimate == 0.0


def test_full_rank_probability_single_check():
    # one check row of all ones survives unless every column is dropped
    cm = check_matrix(2, F(1, 2), SelectionSpec.top(1))
    rep = full_rank_probability(cm, F(1, 2), 20000, 31)
    lo, hi = rep.interval()
    assert lo <= 0.75 <= hi
    assert rep.trials == 20000 and rep.seed == 31


def test_full_rank_probability_thread_invariant():
    cm = check_matrix(64, F(1, 2), SelectionSpec.auto())
    a = full_rank_probability(cm, F(1, 2), 500, 17, threads=1)
    b = full_rank_probability(cm, F(1, 2), 500, 17, threads=3)
    assert a == b


def test_full_rank_probability_generic_field():
    cm = check_matrix(8, F(1, 2), SelectionSpec.top(2), GF3)
    rep = full_rank_probability(cm, F(3, 4), 2000, 23)
    assert 0.0 < rep.estimate <= 1.0


# ---------------------------------------------------------------- exact refs

def test_independence_probability_small():
    # single row of two ones: dependent only when both columns survive
    m = Matrix.from_rows(GF2, [[1, 1]])
    assert independence_probability(m, F(1, 2)) == F(3, 4)
    assert independence_probability(Matrix.identity(GF2, 3), F(1, 3)) == 1
    m2 = Matrix.from_rows(RAT, [[1, 0, 1], [0, 1, 1]])
    # fails only when all three columns survive
    assert independence_probability(m2, F(1, 2)) == 1 - F(1, 8)
    assert support_failure_expectation(m2, BernoulliSupport(F(1, 2))) == F(1, 8)


def test_independence_probability_matches_sampling():
    m = Matrix.from_rows(GF2, [[1, 0, 1], [0, 1, 1]])
    exact = float(independence_probability(m, F(2, 5)))
    res = girth_scan(m, [F(2, 5)], 20000, 41)
    lo, hi = res.estimates[0].interval()
    assert lo <= exact <= hi


def test_bhattacharyya_sum_bounds_dependence():
    # acceptance criterion 6 floors its independence rate with this bound:
    # sampled columns are dependent with probability at most the sum of
    # the unselected leaves
    cases = [(8, GF3, m) for m in range(1, 9)]
    cases += [(16, GF2, m) for m in (4, 6, 8, 10)]
    for n, field, m in cases:
        cm = check_matrix(n, F(1, 2), SelectionSpec.top(m), field)
        for p in (F(1, 4), F(2, 5)):
            dependent = 1 - independence_probability(cm.matrix, p)
            assert dependent <= bhattacharyya_sum(n, p, cm.rows), (n, field, m, p)


# ---------------------------------------------------------------- scans

def test_girth_scan_monotone_by_coupling():
    # shared per-trial uniforms make the dependence event monotone in s
    rng = random.Random(61)
    rows = [[rng.randrange(2) for _ in range(12)] for _ in range(5)]
    m = Matrix.from_rows(GF2, rows)
    grid = [F(1, 10), F(3, 10), F(5, 10), F(7, 10), F(9, 10)]
    res = girth_scan(m, grid, 400, 19)
    rates = res.rates()
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert res.trials == 400 and res.seed == 19
    assert len(res.estimates) == len(grid)


def test_girth_scan_counts_equal_a_per_rate_replay():
    # trial t's set at rate r is the columns whose words of SubStream(seed, t)
    # fall below r's threshold; the scan counts exactly the independent ones
    grid = [F(0), F(1, 5), F(1, 5), F(2, 5), F(1, 2), F(3, 4), F(1)]
    trials, seed = 60, 13
    rng = random.Random(13)
    for field, entries in ((GF2, (0, 0, 1)), (GF3, (0, 0, 1, 2)), (RAT, (0, 0, 1, -1, 2))):
        mats = [
            Matrix.from_rows(field, [[rng.choice(entries) for _ in range(c)] for _ in range(r)])
            for r, c in ((3, 8), (6, 6), (8, 5))
        ]
        mats.append(check_matrix(16, F(1, 2), SelectionSpec.top(6), field).matrix)
        for m in mats:
            want = [0] * len(grid)
            for t in range(trials):
                u = SubStream(seed, t).raw(m.ncols)
                for g, r in enumerate(grid):
                    cols = np.flatnonzero(_below(u, threshold_u64(r))) + 1
                    want[g] += columns_independent(m, cols.tolist())
            got = girth_scan(m, grid, trials, seed)
            assert [rep.successes for rep in got.estimates] == want, (field, m.nrows, m.ncols)


def test_girth_scan_generic_field_matches_gf2_semantics():
    # a rational matrix with the same support can only be more independent
    rows = [[1, 0, 1, 1], [0, 1, 1, 2]]
    m2 = Matrix.from_rows(GF2, [[v % 2 for v in r] for r in rows])
    mq = Matrix.from_rows(RAT, rows)
    g2 = girth_scan(m2, [F(1, 2)], 4000, 7).rates()[0]
    gq = girth_scan(mq, [F(1, 2)], 4000, 7).rates()[0]
    assert gq >= g2 - 0.05


def test_girth_scan_thread_invariant():
    m = Matrix.from_rows(GF2, [[1, 0, 1], [0, 1, 1]])
    a = girth_scan(m, [F(1, 4), F(1, 2)], 600, 3, threads=1)
    b = girth_scan(m, [F(1, 4), F(1, 2)], 600, 3, threads=4)
    assert a.rates() == b.rates()


def test_scan_csv_format():
    m = Matrix.from_rows(GF2, [[1, 1]])
    res = girth_scan(m, [F(1, 2)], 100, 9)
    buf = io.StringIO()
    write_scan_csv(res, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# trials: 100"
    assert lines[1] == "# seed: 9"
    assert lines[2].startswith("# rng: ")
    assert lines[3] == "s,p_hat,ci_lo,ci_hi,trials"
    first = lines[4].split(",")
    assert first[0] == "1/2" and first[4] == "100"


# ---------------------------------------------------------------- vandermonde

def test_vandermonde_reference_construction():
    m = vandermonde(GF3, 2, [0, 1, 2])
    assert m.to_rows() == [[1, 1, 1], [0, 1, 2]]
    r = vandermonde(RAT, 3, [1, 2])
    assert r.to_rows() == [[1, 1], [1, 2], [1, 4]]
