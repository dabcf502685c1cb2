"""Property tests of the exact algebra, and a fuzz of the CLI's input files."""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from highgirth import (
    FieldSpec,
    Matrix,
    columns_independent,
    kernel,
    matvec,
    rank,
    select_columns,
    solve,
)
from highgirth.cli import main
from highgirth.fields import vectors_equal, zero_vector

# 2**31 - 1 is the largest modulus FieldSpec accepts; its products guard int64 overflow
FIELDS = (
    FieldSpec.gf2(),
    FieldSpec.gfp(3),
    FieldSpec.gfp(5),
    FieldSpec.gfp(2147483647),
    FieldSpec.rational(),
)


def entries(field):
    if field.kind == "rational":
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.integers(0, field.order - 1)


@st.composite
def matrices(draw):
    field = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(entries(field), min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    m = Matrix.from_rows(field, rows) if rows else Matrix.zeros(field, 0, ncols)
    x = draw(st.lists(entries(field), min_size=ncols, max_size=ncols))
    cols = draw(st.sets(st.integers(1, ncols)) if ncols else st.just(set()))
    return m, x, cols


ALGEBRA = settings(max_examples=300, deadline=None, derandomize=True)


@ALGEBRA
@given(matrices())
def test_rank_nullity(case):
    m, _, _ = case
    assert rank(m) + len(kernel(m)) == m.ncols


@ALGEBRA
@given(matrices())
def test_kernel_vectors_map_to_zero(case):
    m, _, _ = case
    zero = zero_vector(m.field, m.nrows)
    for v in kernel(m):
        assert vectors_equal(matvec(m, v), zero)


@ALGEBRA
@given(matrices())
def test_solve_reproduces_image(case):
    m, x, _ = case
    y = matvec(m, x)
    found = solve(m, y)
    assert found is not None
    assert vectors_equal(matvec(m, found), y)


def assert_matvec_is_row_products(m, x):
    """matvec against m @ x summed entry by entry from to_rows()."""
    sums = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in m.to_rows()]
    got = matvec(m, x)
    if m.field.kind == "rational":
        assert got == sums
    else:
        assert got.dtype == ("uint8" if m.field.kind == "gf2" else "int64")
        assert got.tolist() == [int(v) % m.field.order for v in sums]


@ALGEBRA
@given(matrices())
def test_matvec_matches_row_products(case):
    m, x, _ = case
    assert_matvec_is_row_products(m, x)


def test_matvec_on_empty_shapes():
    # the strategy draws these shapes rarely, and not for every field
    for field in FIELDS:
        for nrows, ncols in ((0, 0), (0, 3), (3, 0)):
            assert_matvec_is_row_products(Matrix.zeros(field, nrows, ncols), [1] * ncols)


@ALGEBRA
@given(matrices())
def test_columns_independent_is_full_column_rank(case):
    m, _, cols = case
    assert columns_independent(m, cols) == (rank(select_columns(m, cols)) == len(cols))


# ---------------------------------------------------------------- CLI fuzz
# Malformed matrix files and sidecars go through the CLI in-process.  An
# exception escaping main() is what the command line would print as a
# traceback (exit 1), so the property is: main returns 0, 1, 2 or 3.

GOOD_MATRIX = "4 8 gf2\n1 1 1 1 1 1 1 1\n0 1 0 1 0 1 0 1\n0 0 1 1 0 0 1 1\n0 0 0 0 1 1 1 1\n"
GOOD_SIDECAR = {"n": 8, "s": "1/2", "selection": {"mode": "top", "count": 4}, "H": [1, 2, 3, 5]}

tokens = st.sampled_from(["0", "1", "2", "-1", "1/0", "1/2", "x", "1.5", "", "gf2", "gfp:3", "gfp:4", "rational", "99", "\n"])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.sampled_from(["1/2", "8", "top", "x"]) | st.just(0.5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["mode", "count", "threshold"]), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def matrix_texts(draw):
    lines = GOOD_MATRIX.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i].split()
        if toks and draw(st.booleans()):
            toks[draw(st.integers(0, len(toks) - 1))] = draw(tokens)
        else:
            toks = draw(st.lists(tokens, max_size=9))
        lines[i] = " ".join(toks)
    if draw(st.booleans()):
        lines = lines[: draw(st.integers(0, len(lines)))]
    return "\n".join(lines) + "\n"


@st.composite
def sidecar_texts(draw):
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return None  # no sidecar: plain matrix file
    meta = dict(GOOD_SIDECAR)
    for key in draw(st.sets(st.sampled_from(sorted(meta)))):
        if draw(st.booleans()):
            del meta[key]
        else:
            meta[key] = draw(json_values)
    text = json.dumps(meta)
    if choice == 3:
        text = text[: draw(st.integers(0, len(text)))]
    return text


COMMANDS = (
    ["simulate", "mec", "--p", "1/4", "--trials", "3", "--seed", "1", "--pcm"],
    ["simulate", "bsc", "--p", "1/20", "--trials", "3", "--seed", "1", "--pcm"],
    ["analyze", "girth-scan", "--grid", "1/4,1/2", "--trials", "3", "--seed", "1", "--matrix"],
    ["analyze", "spark", "--k", "1", "--matrix"],
    ["analyze", "bound", "--p", "1/20", "--pcm"],
    ["analyze", "l0", "--y=1,0,1,0", "--kmax", "2", "--matrix"],
)


@settings(max_examples=250, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(matrix_texts(), sidecar_texts(), st.sampled_from(COMMANDS))
def test_cli_exit_codes_on_malformed_files(matrix_text, sidecar_text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(matrix_text)
        if sidecar_text is not None:
            with open(path + ".json", "w", encoding="ascii") as fh:
                fh.write(sidecar_text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, path])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error:")
