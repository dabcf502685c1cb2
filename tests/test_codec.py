"""Linear codes from check matrices: encoding, decoding, and error bounds."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from highgirth import (
    ColumnSet,
    FieldSpec,
    Matrix,
    SelectionSpec,
    bsc_error_rate,
    channel_bounds,
    check_matrix,
    code_from_pcm,
    encode,
    exact_girth,
    kernel,
    matvec,
    mec_decode,
    mec_error_rate,
    mec_transmit,
    ml_decode_bsc,
    pairwise_tail,
    rank,
    select_columns,
    sierpinski,
    solve_full,
    syndrome,
    union_bound_bsc,
    union_bound_mec,
    weight_enumerator,
)
from highgirth import fields
from highgirth.channels import ChannelOutput
from highgirth.codec import render_report
from highgirth.fields import negate_vector, vector, vectors_equal
from highgirth.montecarlo import SubStream

F = Fraction
GF2 = FieldSpec.gf2()
GF5 = FieldSpec.gfp(5)
RAT = FieldSpec.rational()

HAMMING_7_4 = [
    [1, 0, 1, 0, 1, 0, 1],
    [0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
]


def repetition_code(n):
    rows = [[1 if j in (0, i) else 0 for j in range(n)] for i in range(1, n)]
    return code_from_pcm(Matrix.from_rows(GF2, rows))


def random_code(rng, n, max_rows):
    nrows = rng.randrange(1, max_rows + 1)
    rows = [[rng.randrange(2) for _ in range(n)] for _ in range(nrows)]
    return code_from_pcm(Matrix.from_rows(GF2, rows))


def min_codeword_weight(code):
    """Brute force over all 2**k messages; None for the trivial code."""
    best = None
    for m in range(1, 1 << code.k):
        msg = [(m >> i) & 1 for i in range(code.k)]
        w = int(np.asarray(encode(code, msg)).sum())
        if best is None or w < best:
            best = w
    return best


# ---------------------------------------------------------------- structure

def test_code_from_pcm_shapes():
    code = code_from_pcm(Matrix.from_rows(GF2, HAMMING_7_4))
    assert (code.n, code.k) == (7, 4)
    assert code.rate == F(4, 7)
    assert rank(code.gen) == 4


def test_generator_rows_satisfy_checks():
    rng = random.Random(17)
    for _ in range(10):
        code = random_code(rng, rng.randrange(2, 10), 6)
        if code.k == 0:
            continue
        z = np.zeros(code.pcm.nrows, np.uint8)
        for row in code.gen.to_rows():
            assert vectors_equal(matvec(code.pcm, vector(GF2, row)), z)


@pytest.mark.parametrize("field", [GF2, FieldSpec.gfp(3), GF5, RAT], ids=str)
def test_generator_is_the_kernel_basis(field):
    pcm = check_matrix(64, F(1, 2), SelectionSpec.top(26), field).matrix
    code = code_from_pcm(pcm)
    assert code.gen == Matrix.from_rows(field, [list(v) for v in kernel(pcm)])
    assert rank(code.gen) == code.k == 38
    # gen_ints (gf2 only) are the kernel vectors with bit j = entry j, also
    # off a 64-column word boundary and for the trivial code
    rng = random.Random(23)
    ragged = Matrix.from_rows(field, [[rng.randrange(2) for _ in range(70)] for _ in range(20)])
    for m in (pcm, ragged, sierpinski(8, field)):
        code = code_from_pcm(m)
        vecs = [list(v) for v in kernel(m)]
        assert code.gen == (Matrix.from_rows(field, vecs) if vecs else Matrix.zeros(field, 0, m.ncols))
        ints = tuple(sum(int(b) << j for j, b in enumerate(v)) for v in vecs)
        assert code.gen_ints == (ints if field == GF2 else None)


def test_encode_syndrome_zero():
    rng = random.Random(18)
    for field in (GF2, GF5, RAT):
        pcm = check_matrix(8, F(1, 2), SelectionSpec.top(4), field).matrix
        code = code_from_pcm(pcm)
        for _ in range(5):
            if field.kind == "gf2":
                msg = [rng.randrange(2) for _ in range(code.k)]
            elif field.kind == "gfp":
                msg = [rng.randrange(field.p) for _ in range(code.k)]
            else:
                msg = [F(rng.randrange(-3, 4)) for _ in range(code.k)]
            cw = encode(code, msg)
            syn = syndrome(code, cw)
            assert not any(int(v) if not isinstance(v, F) else v != 0 for v in np.atleast_1d(syn)) or all(
                v == 0 for v in list(syn)
            )


def test_encode_rejects_wrong_length():
    code = repetition_code(4)
    with pytest.raises(ValueError):
        encode(code, [1, 0])


# ---------------------------------------------------------------- erasure

def test_mec_decode_no_erasures():
    code = repetition_code(5)
    cw = encode(code, [1])
    out = mec_transmit(GF2, cw, F(0), SubStream(1, 0))
    res = mec_decode(code, out)
    assert res.status == "decoded"
    assert vectors_equal(res.codeword, cw)


def test_mec_decode_fills_erasures():
    code = code_from_pcm(Matrix.from_rows(GF2, HAMMING_7_4))
    cw = encode(code, [1, 0, 1, 1])
    for trial in range(30):
        out = mec_transmit(GF2, cw, F(1, 4), SubStream(5, trial))
        res = mec_decode(code, out)
        if res.status == "decoded":
            assert vectors_equal(res.codeword, cw)
        else:
            # ambiguity needs a nonzero codeword supported inside the erasures
            assert res.status == "ambiguous"
            erased = set(out.flagged.indices)
            hit = False
            for m in range(1, 1 << code.k):
                msg = [(m >> i) & 1 for i in range(code.k)]
                w = encode(code, msg)
                supp = {j + 1 for j, v in enumerate(np.asarray(w)) if v}
                if supp <= erased:
                    hit = True
                    break
            assert hit


def test_mec_decode_stays_apart_from_the_oracle_certificate(monkeypatch):
    # criterion 7 checks the decoder against the oracle, so the decoder
    # must not read the SC certificate the oracle answers from
    def refuse(*_):
        raise AssertionError("the decoder used the SC certificate")

    monkeypatch.setattr(fields, "_sc_leaves", refuse)
    monkeypatch.setattr(Matrix, "_frozen_rows", refuse)
    code = code_from_pcm(check_matrix(64, F(1, 2), SelectionSpec.top(26)).matrix)
    cw = encode(code, [1] * code.k)
    out = mec_transmit(GF2, cw, F(1, 5), SubStream(3, 0))
    res = mec_decode(code, out)
    assert res.status == "decoded" and vectors_equal(res.codeword, cw)


def test_mec_decode_all_erased_is_ambiguous():
    code = repetition_code(3)
    cw = encode(code, [1])
    out = mec_transmit(GF2, cw, F(1), SubStream(2, 0))
    assert mec_decode(code, out).status == "ambiguous"


def test_mec_decode_generic_field():
    pcm = check_matrix(8, F(1, 2), SelectionSpec.top(5), GF5).matrix
    code = code_from_pcm(pcm)
    cw = encode(code, [1, 3, 2])
    for trial in range(20):
        out = mec_transmit(GF5, cw, F(1, 4), SubStream(8, trial))
        res = mec_decode(code, out)
        if res.status == "decoded":
            assert vectors_equal(res.codeword, cw)


def reference_mec_decode(code, y, erased):
    """Decode by materialising the erased columns as their own matrix."""
    syn = negate_vector(code.field, matvec(code.pcm, y))
    rk, ok, x = solve_full(select_columns(code.pcm, erased), syn)
    if not ok:
        return "inconsistent", None
    if rk < len(erased):
        return "ambiguous", None
    filled = vector(code.field, y)
    for pos, val in zip(erased.zero_based(), x):
        filled[pos] = val
    return "decoded", filled


def random_symbol(rng, field):
    if field.kind == "gf2":
        return rng.randrange(2)
    if field.kind == "gfp":
        return rng.randrange(field.p)
    return F(rng.randrange(-3, 4), rng.randrange(1, 4))


@pytest.mark.parametrize("field", [GF2, FieldSpec.gfp(3), GF5, RAT], ids=str)
def test_mec_decode_matches_sub_matrix_solve(field):
    rng = random.Random(17)
    sizes = ((64, 32), (256, 128)) if field == GF2 else ((16, 8), (64, 32))
    for n, m in sizes:
        code = code_from_pcm(check_matrix(n, F(1, 2), SelectionSpec.top(m), field).matrix)
        seen = set()
        for t in range(120):
            cw = encode(code, [random_symbol(rng, field) for _ in range(code.k)])
            size = rng.choice((0, 1, m // 4, m // 2, m - 4, m, m + 8))
            erased = ColumnSet.of(rng.sample(range(1, n + 1), size))
            if t % 3 == 0:  # a word that is not a codeword
                y = vector(field, [random_symbol(rng, field) for _ in range(n)])
            else:
                y = vector(field, cw)
                if t % 3 == 1:  # erased slots zeroed, as the channel does
                    for i in erased.zero_based():
                        y[i] = 0
                # else: the erased slots keep their symbols
            want, filled = reference_mec_decode(code, y, erased)
            res = mec_decode(code, ChannelOutput(field, y, erased))
            assert res.status == want, (n, t)
            assert res.erased == erased
            if want == "decoded":
                assert type(res.codeword) is type(filled)
                if isinstance(filled, np.ndarray):
                    assert res.codeword.dtype == filled.dtype
                else:
                    assert all(type(v) is F for v in res.codeword)
                assert vectors_equal(res.codeword, filled)
            else:
                assert res.codeword is None
            seen.add(want)
        assert seen == {"decoded", "ambiguous", "inconsistent"}, n


def test_mec_decode_input_checks():
    for field in (GF2, GF5, RAT):
        code = code_from_pcm(Matrix.from_rows(field, HAMMING_7_4))
        with pytest.raises(ValueError):
            mec_decode(code, ChannelOutput(field, np.zeros(6, np.uint8), ColumnSet.of([1])))
        with pytest.raises(ValueError):
            mec_decode(code, ChannelOutput(field, np.zeros(7, np.uint8), ColumnSet.of([8])))
        with pytest.raises(TypeError):
            mec_decode(code, ChannelOutput(field, np.zeros(7), ColumnSet.of([1])))
    # list input, odd symbols read mod 2 as matvec reads them
    code = code_from_pcm(Matrix.from_rows(GF2, HAMMING_7_4))
    res = mec_decode(code, ChannelOutput(GF2, [3, 0, 1, 0, 1, 0, 1], ColumnSet.of([2])))
    assert res.status == "decoded"
    assert res.codeword.tolist() == [1, 0, 1, 0, 1, 0, 1]
    # over GF(5) list symbols are read mod 5
    code = code_from_pcm(Matrix.from_rows(GF5, HAMMING_7_4))
    cw = encode(code, [1, 2, 3, 4])
    word = [int(v) + 5 for v in cw]
    word[0] = 0
    res = mec_decode(code, ChannelOutput(GF5, word, ColumnSet.of([1])))
    assert res.status == "decoded"
    assert res.codeword.dtype == np.int64
    assert res.codeword.tolist() == cw.tolist()
    # over the rationals int symbols come back as Fractions
    code = code_from_pcm(Matrix.from_rows(RAT, HAMMING_7_4))
    cw = encode(code, [F(1), F(-2), F(1, 3), F(0)])
    word = [int(v) if v.denominator == 1 else v for v in cw]
    word[6] = 0
    res = mec_decode(code, ChannelOutput(RAT, word, ColumnSet.of([7])))
    assert res.status == "decoded"
    assert all(type(v) is F for v in res.codeword)
    assert res.codeword == cw


def test_mec_error_rate_identity():
    # failures and dependence events are the same trials, by construction
    pcm = check_matrix(16, F(1, 2), SelectionSpec.top(10)).matrix
    code = code_from_pcm(pcm)
    rep = mec_error_rate(code, F(1, 2), 2000, 77)
    assert rep["mismatches"] == 0
    assert rep["p_hat"] == rep["dependence_rate"]
    assert rep["failures"] == rep["dependence_events"]
    assert 0.0 <= rep["p_hat"] <= 1.0


def test_mec_error_rate_report_shape():
    code = repetition_code(4)
    rep = mec_error_rate(code, F(1, 4), 500, 3, selection="top:3")
    assert list(rep.keys()) == [
        "code", "channel", "p", "p_float", "trials", "seed", "rng_id",
        "failures", "p_hat", "ci_lo", "ci_hi", "bounds",
        "dependence_events", "dependence_rate", "mismatches",
    ]
    assert rep["code"] == {"n": 4, "k": 1, "field": "gf2", "selection": "top:3"}
    assert rep["channel"] == "mec" and rep["p"] == "1/4"
    text = render_report(rep)
    assert text.endswith("\n")
    assert json.loads(text) == rep


# ---------------------------------------------------------------- ml / bsc

def test_ml_decode_recovers_clean_word():
    code = code_from_pcm(Matrix.from_rows(GF2, HAMMING_7_4))
    cw = encode(code, [0, 1, 1, 0])
    res = ml_decode_bsc(code, cw)
    assert res.distance == 0 and res.unique
    assert vectors_equal(res.codeword, cw)


def test_ml_decode_corrects_single_error():
    code = code_from_pcm(Matrix.from_rows(GF2, HAMMING_7_4))
    cw = np.asarray(encode(code, [1, 1, 0, 0]), np.uint8)
    for pos in range(7):
        rx = cw.copy()
        rx[pos] ^= 1
        res = ml_decode_bsc(code, rx)
        assert res.unique and res.distance == 1
        assert vectors_equal(res.codeword, cw)


def test_ml_decode_reports_ties():
    code = repetition_code(2)  # codewords 00 and 11
    res = ml_decode_bsc(code, vector(GF2, [0, 1]))
    assert res.distance == 1 and not res.unique
    # deterministic tie break: numerically smallest codeword
    assert list(map(int, res.codeword)) == [0, 0]


def test_bsc_error_rate_counts_ties_as_errors():
    # two-word code at p=1/2: any weight-1 receive ties, weight-2 decodes wrong;
    # exact block error rate is 3/4
    code = repetition_code(2)
    rep = bsc_error_rate(code, F(1, 2), 4000, 11)
    assert rep["ci_lo"] <= 0.75 <= rep["ci_hi"]


def test_bsc_error_rate_zero_noise():
    code = repetition_code(4)
    rep = bsc_error_rate(code, F(0), 200, 1)
    assert rep["failures"] == 0 and rep["p_hat"] == 0.0
    assert list(rep.keys())[-4:] == ["p_hat", "ci_lo", "ci_hi", "bounds"]


def test_error_rate_thread_invariance():
    code = code_from_pcm(Matrix.from_rows(GF2, HAMMING_7_4))
    a = bsc_error_rate(code, F(1, 10), 800, 5, threads=1)
    b = bsc_error_rate(code, F(1, 10), 800, 5, threads=4)
    assert a == b
    am = mec_error_rate(code, F(1, 3), 800, 5, threads=1)
    bm = mec_error_rate(code, F(1, 3), 800, 5, threads=4)
    assert am == bm


# ---------------------------------------------------------------- enumerator

def test_weight_enumerator_hamming():
    code = code_from_pcm(Matrix.from_rows(GF2, HAMMING_7_4))
    enum = weight_enumerator(code)
    assert list(enum.counts) == [1, 0, 0, 7, 7, 0, 0, 1]
    assert enum.min_distance == 3


def test_weight_enumerator_repetition():
    enum = weight_enumerator(repetition_code(5))
    assert list(enum.counts) == [1, 0, 0, 0, 0, 1]
    assert enum.min_distance == 5


def test_min_distance_equals_pcm_girth():
    rng = random.Random(23)
    done = 0
    while done < 20:
        n = rng.randrange(3, 13)
        code = random_code(rng, n, 8)
        if code.k == 0 or code.k > 10:
            continue
        done += 1
        g = exact_girth(code.pcm)
        w = min_codeword_weight(code)
        if w is None:
            assert g == code.n + 1
        else:
            assert g == w


def test_union_bounds_single_weight():
    code = repetition_code(3)  # N(3) = 1
    enum = weight_enumerator(code)
    p = F(1, 10)
    assert union_bound_mec(enum, p) == p ** 3
    z = union_bound_bsc(enum, p)
    assert z >= pairwise_tail(3, p)  # dominates the exact two-word tail


def test_channel_bounds_structure():
    cm = check_matrix(16, F(1, 2), SelectionSpec.top(12))
    code = code_from_pcm(cm.matrix)
    b = channel_bounds(code, "bsc", F(1, 20), rows=cm.rows)
    assert set(b) == {"union", "union_float", "bhatt", "bhatt_float"}
    assert b["union"] is not None and b["bhatt"] is not None
    assert 0.0 <= b["union_float"] <= 1.0
    assert 0.0 <= b["bhatt_float"] <= 1.0
    nb = channel_bounds(code, "mec", F(1, 4))
    assert nb["bhatt"] is None  # leaf-sum bound needs the selected rows
    assert nb["union"] is not None
