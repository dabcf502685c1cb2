"""Linear codes from check matrices: encoding, decoding, and error bounds."""

import hashlib
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
    columns_independent,
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
    vandermonde,
    weight_enumerator,
)
from highgirth import _butterfly, codec, fields
from highgirth.channels import ChannelOutput, bsc_transmit
from highgirth.codec import render_report
from highgirth.fields import EnumerationBudget, negate_vector, vector, vectors_equal
from highgirth.montecarlo import RNG_ID, SubStream, wilson_interval

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


@pytest.mark.parametrize("field", [GF2, FieldSpec.gfp(3), GF5, RAT], ids=str)
def test_encode_is_the_message_combination_of_generator_rows(field):
    rng = random.Random(19)
    code = code_from_pcm(check_matrix(16, F(1, 2), SelectionSpec.top(8), field).matrix)
    rows = code.gen.to_rows()
    q = field.order
    for _ in range(4):
        msg = [random_symbol(rng, field) for _ in range(code.k)]
        if not any(msg):
            msg[0] = 1
        want = [sum(m * r[j] for m, r in zip(msg, rows)) for j in range(code.n)]
        cw = encode(code, msg)
        if q is None:
            assert isinstance(cw, list) and all(isinstance(v, F) for v in cw)
            assert cw == want
        else:
            assert isinstance(cw, np.ndarray)
            assert cw.dtype == (np.uint8 if q == 2 else np.int64)
            assert cw.tolist() == [v % q for v in want]


def test_rational_encode_is_the_fraction_row_sum():
    # ℚ encode sums the generator's integer-scaled rows over one common
    # denominator; it must equal the plain Fraction sum, zero message too
    rng = random.Random(154)
    pcms = [
        check_matrix(64, F(1, 2), SelectionSpec.top(26), RAT).matrix,
        vandermonde(RAT, 4, [F(j * j, 3) for j in range(1, 13)]),
    ]
    for pcm in pcms:
        code = code_from_pcm(pcm)
        rows = code.gen.to_rows()
        messages = [[F(0)] * code.k, [F(1)] + [F(0)] * (code.k - 1)]
        messages += [[F(rng.randrange(-9, 10), rng.randrange(1, 12)) for _ in range(code.k)] for _ in range(3)]
        for msg in messages:
            want = [F(0)] * code.n
            for m, r in zip(msg, rows):
                want = [a + m * b for a, b in zip(want, r)]
            cw = encode(code, msg)
            assert cw == want and all(type(v) is F for v in cw)
            assert not any(syndrome(code, cw))
    assert any(v.denominator > 1 for r in rows for v in r)  # the Vandermonde code's


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


@pytest.mark.parametrize("field", [GF2, FieldSpec.gfp(3)], ids=str)
def test_mec_decode_stays_apart_from_the_oracle_certificate(monkeypatch, field):
    # criterion 7 checks the decoder against the oracle, so the two must
    # share no certificate: the decoder runs successive cancellation (over
    # GF(2) only) and never peels, and the oracle peels and never runs
    # successive cancellation
    used = []

    def refuse(name):
        def call(*_):
            raise AssertionError(f"{name} crossed the decoder/oracle split")

        return call

    def counted(name, fn):
        def call(*args):
            used.append(name)
            return fn(*args)

        return call

    code = code_from_pcm(check_matrix(64, F(1, 2), SelectionSpec.top(26), field).matrix)
    cw = encode(code, [1] * code.k)
    out = mec_transmit(field, cw, F(1, 5), SubStream(3, 0))
    assert out.flagged
    with monkeypatch.context() as mp:
        mp.setattr(fields, "_bp_known", refuse("_bp_known"))
        mp.setattr(fields, "_sc_decode", counted("_sc_decode", _butterfly._sc_decode))
        res = mec_decode(code, out)
    assert res.status == "decoded" and vectors_equal(res.codeword, cw)
    # one entry per SC pass over GF(2); no SC over other fields
    assert set(used) == ({"_sc_decode"} if field == GF2 else set())
    used.clear()
    with monkeypatch.context() as mp:
        mp.setattr(fields, "_sc_decode", refuse("_sc_decode"))
        mp.setattr(fields, "_bp_known", counted("_bp_known", _butterfly._bp_known))
        assert columns_independent(code.pcm, out.flagged)
    assert used == ["_bp_known"]


def solve_columns_decode(code, y, erased):
    """The decoder's answer from _solve_columns alone, erased slots ignored."""
    idx = list(erased.zero_based())
    filled = vector(code.field, y)
    filled[idx] = 0
    rk, ok, x = fields._solve_columns(code.pcm, idx, negate_vector(code.field, matvec(code.pcm, filled)))
    if not ok:
        return "inconsistent", None
    if rk < len(idx):
        return "ambiguous", None
    filled[idx] = x
    return "decoded", filled


def test_sc_decoder_matches_subset_solve_on_every_pattern_n16():
    # every erasure pattern, cycling through a codeword with its erased
    # slots zeroed, the same with junk left in them, and a word that is
    # not a codeword; top: and random frozen sets
    n = 16
    rng = random.Random(1604)
    frozen_sets = [
        [i - 1 for i in check_matrix(n, F(1, 2), SelectionSpec.top(8)).rows],
        [0] + rng.sample(range(1, n), 6),
    ]
    for frozen in frozen_sets:
        pcm = Matrix.from_rows(GF2, [[int(i & ~j == 0) for j in range(n)] for i in frozen])
        code = code_from_pcm(pcm)
        assert pcm._frozen_rows() == sum(1 << i for i in frozen)
        words = [encode(code, [rng.randrange(2) for _ in range(code.k)]) for _ in range(5)]
        statuses = set()
        for f in range(1 << n):
            erased = ColumnSet.of(j + 1 for j in range(n) if f >> j & 1)
            y = words[f % 5].copy()
            if f % 3 == 0:
                y[list(erased.zero_based())] = 0
            elif f % 3 == 1:
                y[rng.randrange(n)] ^= 1
            want, filled = solve_columns_decode(code, y, erased)
            res = mec_decode(code, ChannelOutput(GF2, y, erased))
            assert res.status == want, (frozen, f)
            if want == "decoded":
                assert res.codeword.dtype == filled.dtype and vectors_equal(res.codeword, filled), (frozen, f)
            else:
                assert res.codeword is None
            statuses.add((f % 3, want))
        assert {(0, "decoded"), (1, "inconsistent"), (2, "decoded"), (0, "ambiguous")} <= statuses


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
    """Decode by materialising the erased columns as their own matrix;
    the symbols in the erased slots are ignored."""
    filled = vector(code.field, y)
    for pos in erased.zero_based():
        filled[pos] = 0 if isinstance(filled, np.ndarray) else F(0)
    syn = negate_vector(code.field, matvec(code.pcm, filled))
    rk, ok, x = solve_full(select_columns(code.pcm, erased), syn)
    if not ok:
        return "inconsistent", None
    if rk < len(erased):
        return "ambiguous", None
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


@pytest.mark.parametrize("field", [GF2, FieldSpec.gfp(3), GF5, RAT], ids=str)
def test_mec_decode_ignores_symbols_in_erased_slots(field):
    # junk left in the erased slots must not reach the decoded word: it
    # satisfies the checks and is the sent codeword.  Transform rows take
    # the SC path over GF(2), and the Hamming code the subset solve.
    rng = random.Random(23)
    pcms = [check_matrix(16, F(1, 2), SelectionSpec.top(8), field).matrix, Matrix.from_rows(field, HAMMING_7_4)]
    for pcm in pcms:
        code = code_from_pcm(pcm)
        decoded = 0
        for t in range(60):
            cw = encode(code, [random_symbol(rng, field) for _ in range(code.k)])
            erased = ColumnSet.of([1] if t == 0 else rng.sample(range(1, code.n + 1), rng.randrange(1, 5)))
            hit = set(erased.zero_based())
            y = vector(field, [v + (i in hit) for i, v in enumerate(cw)])
            res = mec_decode(code, ChannelOutput(field, y, erased))
            if res.status == "decoded":
                decoded += 1
                assert not any(v != 0 for v in matvec(pcm, res.codeword)), (pcm.ncols, t)
                assert vectors_equal(res.codeword, cw), (pcm.ncols, t)
            else:
                assert res.status == "ambiguous"
        assert decoded > 30


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


def reference_mec_error_rate(code, p, trials, seed):
    """mec_error_rate's report, from a trial loop on the public calls."""
    failures = dependent = mismatches = 0
    for t in range(trials):
        stream = SubStream(seed, t)
        if code.field == GF2:
            msg = stream.bits(code.k)
        elif code.field.kind == "gfp":
            msg = stream.symbols_mod(code.k, code.field.p)
        else:  # the zero codeword, with no draws
            msg = [0] * code.k
        cw = encode(code, msg)
        out = mec_transmit(code.field, cw, p, stream)
        res = mec_decode(code, out)
        fail = res.status != "decoded"
        dep = not columns_independent(code.pcm, out.flagged)
        if not fail and not vectors_equal(res.codeword, cw):
            fail = mismatch = True
        else:
            mismatch = fail != dep
        failures += fail
        dependent += dep
        mismatches += mismatch
    lo, hi = wilson_interval(failures, trials)
    return {
        "code": {"n": code.n, "k": code.k, "field": code.field.name(), "selection": None},
        "channel": "mec",
        "p": str(p),
        "p_float": float(p),
        "trials": trials,
        "seed": seed,
        "rng_id": RNG_ID,
        "failures": failures,
        "p_hat": failures / trials,
        "ci_lo": lo,
        "ci_hi": hi,
        "bounds": None,
        "dependence_events": dependent,
        "dependence_rate": dependent / trials,
        "mismatches": mismatches,
    }


def permuted_columns(m, seed):
    perm = random.Random(seed).sample(range(m.ncols), m.ncols)
    pm = Matrix.from_rows(m.field, [[row[j] for j in perm] for row in m.to_rows()])
    assert pm._frozen_rows() is None
    return pm


def test_mec_error_rate_equals_the_public_trial_loop(monkeypatch):
    # the trials run in lane blocks on the field's own words and flag ints
    # through the decoder and oracle cores; the report must equal, key for
    # key, the one the public calls give, on transform rows (SC and the
    # polar-form codeword over GF(2), peeling in the oracle) and on the
    # same rows with their columns permuted.  30 trials fill one ragged
    # block at the default size, and four full blocks of 7 lanes and a
    # ragged one of 2 at the small size
    pcms = []
    for field in (GF2, FieldSpec.gfp(3), GF5, RAT):
        rows = check_matrix(64, F(1, 2), SelectionSpec.top(26), field).matrix
        pcms += [rows, permuted_columns(rows, 64)]
    pcms.append(check_matrix(256, F(1, 2), SelectionSpec.top(102)).matrix)
    failed, decoded = set(), set()
    for i, pcm in enumerate(pcms):
        code = code_from_pcm(pcm)
        for p in (F(0), F(1, 5), F(1, 2), F(1)):
            for seed in (1, 29, 2**63 + 5) if pcm.field == GF2 else (29,):
                want = reference_mec_error_rate(code, p, 30, seed)
                for bits in (codec._LANE_BITS, 7 * pcm.ncols):
                    with monkeypatch.context() as mp:
                        mp.setattr(codec, "_LANE_BITS", bits)
                        rep = mec_error_rate(code, p, 30, seed)
                    assert list(rep.items()) == list(want.items()), (pcm.field, pcm.ncols, p, seed, bits)
                if rep["failures"]:
                    failed.add(i)
                if rep["failures"] < 30:
                    decoded.add(i)
    assert failed == decoded == set(range(len(pcms)))


def test_sc_rejected_lanes_are_solved_inside_their_block(monkeypatch):
    # at n = 64, top:26, p = 2/5, seed 3, SC rejects 21 of 200 trials whose
    # erased columns are independent; the decoder solves them inside their
    # block, of 200 lanes at the default size and of 3 at the small one,
    # and the report stays the public trial loop's
    code = code_from_pcm(check_matrix(64, F(1, 2), SelectionSpec.top(26)).matrix)
    want = reference_mec_error_rate(code, F(2, 5), 200, 3)
    decode, fill = fields._erasure_decode, fields._fill
    for bits in (codec._LANE_BITS, 3 * 64):
        lanes, solved = [], []

        def block_decode(m, y, f, size):
            lanes.append(size)
            try:
                return decode(m, y, f, size)
            finally:
                lanes.pop()

        def lane_fill(m, y, idx):
            status, word = fill(m, y, idx)
            solved.append((lanes[-1], status))
            return status, word

        with monkeypatch.context() as mp:
            mp.setattr(codec, "_LANE_BITS", bits)
            mp.setattr(codec, "_erasure_decode", block_decode)
            mp.setattr(fields, "_fill", lane_fill)
            rep = mec_error_rate(code, F(2, 5), 200, 3)
        assert list(rep.items()) == list(want.items())
        decoded = [size for size, status in solved if status == "decoded"]
        assert len(decoded) == 21 and min(decoded) >= 3, bits


# SHA-256 of render_report(mec_error_rate(...)) for the cases of
# report_cases, computed before the decoder ran in lanes
REPORT_SHA256 = {
    "c7-1": "41b32689c939c8c36ab0f85c652ab22a6da0552e9286d5262c8e15fe33ed463b",
    "c7-3": "e2da9efd080de93cd6703d489bba907405664d21045e63f1e1cdd98fc24bd2e5",
    "c7-4": "152d404a3388dc5102de27540af3f2ba39ae9fb195b4ebcae662fa96347f97f3",
    "c7-67": "933cdb97f30a33206538132b005fa2c8d967a6392c816c908def49532be75f24",
    "c7-300": "7f3f9dc71cb7bd13f3742425ddf4627a4df6bb9be35cf20aa8f0a459b514ea7e",
    "n64-0": "e7fad77a02c174c07fbc23b710c0ba146451f168be7cc2a145cadacccfb0844a",
    "n64-1/5": "b034408c72cd511d77f031a783b4fd367384c0d1151411b2e57c318335a7fcc6",
    "n64-1/2": "c86cb19be3730ad164ecea7f0b1dcefbf84473d7b90f2fbec22da67bb9ee9207",
    "n64-1": "35924044f23a3bf96e4de4e70a064937897c7aa2f14f46e6eee8a97e683814b7",
    "n64-permuted": "404c9e90d7af736a1840ec8015547cfb20c990e4e1572d2eae047af20eeb9a3d",
    "n64-gf3": "a590f74aa4274e236ce463889de3ccb3219c58b5d1e63183065296a0fdd09dce",
}


def report_cases():
    """(name, check matrix, p, trials, seed) of each pinned report."""
    c7 = check_matrix(1024, F(2, 5), SelectionSpec.top(614)).matrix
    for trials in (1, 3, 4, 67, 300):  # one lane, ragged blocks, 64 lanes and more
        yield f"c7-{trials}", c7, F(2, 5), trials, 71
    m64 = check_matrix(64, F(1, 2), SelectionSpec.top(26)).matrix
    for p in (F(0), F(1, 5), F(1, 2), F(1)):
        yield f"n64-{p}", m64, p, 200, 3
    yield "n64-permuted", permuted_columns(m64, 64), F(1, 5), 200, 3
    yield "n64-gf3", check_matrix(64, F(1, 2), SelectionSpec.top(26), FieldSpec.gfp(3)).matrix, F(1, 5), 40, 29


def test_mec_error_rate_report_bytes_are_pinned():
    got = {
        name: hashlib.sha256(render_report(mec_error_rate(code_from_pcm(m), p, trials, seed)).encode()).hexdigest()
        for name, m, p, trials, seed in report_cases()
    }
    assert got == REPORT_SHA256


@pytest.mark.parametrize("field", [GF2, FieldSpec.gfp(3)], ids=str)
def test_mec_error_rate_keeps_the_decoder_apart_from_the_oracle(monkeypatch, field):
    # inside the simulator itself: successive cancellation runs only under
    # the decoder core (over GF(2)) and peeling only under the oracle core
    inside, seen = [], []

    def under(name, fn):
        def call(*args):
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return call

    def noted(name, fn):
        def call(*args):
            seen.append((name, tuple(inside)))
            return fn(*args)

        return call

    code = code_from_pcm(check_matrix(64, F(1, 2), SelectionSpec.top(26), field).matrix)
    want = mec_error_rate(code, F(1, 5), 40, 3)
    with monkeypatch.context() as mp:
        mp.setattr(codec, "_erasure_decode", under("decoder", fields._erasure_decode))
        mp.setattr(codec, "_flags_independent", under("oracle", fields._flags_independent))
        mp.setattr(fields, "_sc_decode", noted("_sc_decode", _butterfly._sc_decode))
        mp.setattr(fields, "_bp_known", noted("_bp_known", _butterfly._bp_known))
        assert mec_error_rate(code, F(1, 5), 40, 3) == want
    assert want["failures"] < 40
    assert {name for name, _ in seen} == ({"_sc_decode", "_bp_known"} if field == GF2 else {"_bp_known"})
    for name, stack in seen:
        assert stack == (("decoder",) if name == "_sc_decode" else ("oracle",)), (name, stack)


@pytest.mark.parametrize("field", [GF2, FieldSpec.gfp(3)], ids=str)
def test_mec_error_rate_counts_a_wrong_codeword_as_failure_and_mismatch(monkeypatch, field):
    # the safety path: a decoder that says "decoded" but returns a word
    # other than the one sent fails that trial and disagrees with the
    # oracle.  The patched decoder corrupts coordinate 0 of lane 0 of each
    # block: one block int over GF(2), a list of words over GF(3)
    code = code_from_pcm(check_matrix(64, F(1, 2), SelectionSpec.top(26), field).matrix)
    real = fields._erasure_decode

    def wrong_first_lane(pcm, sent, flags, lanes):
        statuses, decoded = real(pcm, sent, flags, lanes)
        assert statuses[0] == "decoded"
        if field == GF2:
            return statuses, decoded ^ 1
        word = decoded[0].copy()
        word[0] = (word[0] + 1) % 3
        return statuses, [word, *decoded[1:]]

    clean = mec_error_rate(code, F(0), 5, 3)
    assert (clean["failures"], clean["mismatches"], clean["dependence_events"]) == (0, 0, 0)
    monkeypatch.setattr(codec, "_erasure_decode", wrong_first_lane)
    rep = mec_error_rate(code, F(0), 5, 3)
    assert (rep["failures"], rep["mismatches"], rep["dependence_events"]) == (1, 1, 0)
    monkeypatch.setattr(codec, "_LANE_BITS", 2 * 64)  # three blocks: 2, 2 and 1 lanes
    rep = mec_error_rate(code, F(0), 5, 3)
    assert (rep["failures"], rep["mismatches"], rep["dependence_events"]) == (3, 3, 0)


def test_mec_error_rate_input_checks():
    code = code_from_pcm(Matrix.from_rows(GF2, HAMMING_7_4))
    with pytest.raises(ValueError):
        mec_error_rate(code, F(1, 10), 10, 5, threads=0)
    with pytest.raises(ValueError):
        mec_error_rate(code, F(1, 10), 0, 5)
    with pytest.raises(ValueError):
        mec_error_rate(code, F(1, 10), 10, 1 << 64)


def test_rational_trials_coerce_no_entries(monkeypatch):
    # a rational trial sends the zero word and decodes its canonical copy,
    # so no entry goes through the entry check once the code is built
    calls = []
    real = fields._rational_entry

    def counted(v):
        calls.append(v)
        return real(v)

    code = code_from_pcm(check_matrix(64, F(1, 2), SelectionSpec.top(26), RAT).matrix)
    mec_error_rate(code, F(1, 5), 1, 8)  # fills the matrix caches
    counts, reports = [], []
    for trials in (3, 40):
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(fields, "_rational_entry", counted)
            reports.append(mec_error_rate(code, F(1, 5), trials, 8))
        counts.append(len(calls))
    assert counts[0] == counts[1]
    assert 0 < reports[1]["failures"] < 40 and reports[1]["mismatches"] == 0


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


def reference_bsc_failures(code, p, trials, seed):
    """Criterion 10's trial, one substream at a time."""
    failures = 0
    for t in range(trials):
        stream = SubStream(seed, t)
        cw = encode(code, stream.bits(code.k))
        out = bsc_transmit(cw, p, stream)
        res = ml_decode_bsc(code, out.symbols)
        failures += not res.unique or not vectors_equal(res.codeword, cw)
    return failures


def bsc_codes():
    rng = random.Random(70)
    yield code_from_pcm(check_matrix(16, F(1, 2), SelectionSpec.top(12)).matrix)
    for m in range(1, 9):  # k = 7 ... 0
        yield code_from_pcm(check_matrix(8, F(1, 2), SelectionSpec.top(m)).matrix)
    yield code_from_pcm(Matrix.from_rows(GF2, [[0] * 8]))  # k = 8
    # several words per codeword, the last one partly used
    yield code_from_pcm(check_matrix(128, F(1, 2), SelectionSpec.top(120)).matrix)
    yield code_from_pcm(Matrix.from_rows(GF2, [[rng.randrange(2) for _ in range(70)] for _ in range(62)]))


def test_bsc_error_rate_matches_per_trial_reference(monkeypatch):
    # the default block and a tiny one, which splits the codeword table
    # and the trials into many blocks; 137 trials fill no block exactly
    trials, seen = 137, set()
    for code in bsc_codes():
        for p in (F(0), F(1, 20), F(1, 2), F(1)):
            want = reference_bsc_failures(code, p, trials, 9)
            for words in (codec._BLOCK_WORDS, 64):
                with monkeypatch.context() as mp:
                    mp.setattr(codec, "_BLOCK_WORDS", words)
                    got = bsc_error_rate(code, p, trials, 9)["failures"]
                assert got == want, (code.n, code.k, p, words)
            seen.add((code.n, code.k))
    assert {(8, k) for k in range(9)} | {(16, 4), (128, 8)} <= seen
    assert any(n == 70 and 8 <= k <= 10 for n, k in seen)


def test_bsc_error_rate_input_checks():
    code = code_from_pcm(Matrix.from_rows(GF2, HAMMING_7_4))
    with pytest.raises(ValueError):
        bsc_error_rate(code, F(1, 10), 10, 5, threads=0)
    with pytest.raises(ValueError):
        bsc_error_rate(code, F(1, 10), 0, 5)
    with pytest.raises(ValueError):
        bsc_error_rate(code, F(1, 10), 10, 1 << 64)
    with pytest.raises(EnumerationBudget):
        bsc_error_rate(code, F(1, 10), 10, 5, budget=8)


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
