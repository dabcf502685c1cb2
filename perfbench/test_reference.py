"""Tests of the benchmark's reference computations.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""
from fractions import Fraction as F

import numpy as np
import pytest

import reference as ref


def test_leaves_n4_half():
    d = ref.denominator(4, F(1, 2))
    assert [F(a, d) for a in ref.leaves(4, F(1, 2))] == [F(15, 16), F(9, 16), F(7, 16), F(1, 16)]


@pytest.mark.parametrize("n", [1, 2, 8, 64, 512])
@pytest.mark.parametrize("s", [F(1, 2), F(2, 5), F(1, 3), F(0), F(1)])
def test_leaves_sum_to_n_s(n, s):
    assert F(sum(ref.leaves(n, s)), ref.denominator(n, s)) == n * s


def test_leaves_follow_index_bits():
    # leaf 0b011 at n = 8: 2x - x**2, then x**2 twice
    x = F(1, 3)
    x = 2 * x - x * x
    x = x * x
    x = x * x
    d = ref.denominator(8, F(1, 3))
    assert F(list(ref.leaves(8, F(1, 3)))[3], d) == x


def test_threshold_and_top_rows():
    # n = 4 at s = 1/2: leaves 15/16, 9/16, 7/16, 1/16
    assert ref.threshold_rows(4, F(1, 2), 1) == (1, 2)
    assert ref.threshold_rows(4, F(1, 2), 2) == (1,)
    assert ref.top_rows(4, F(1, 2), 3) == (1, 2, 3)
    # ties go to the smaller index: every leaf of s = 0 is 0
    assert ref.top_rows(8, F(0), 2) == (1, 2)
    assert ref.unselected_sum(4, F(1, 2), (1, 2)) == F(8, 16)


def test_paper_exponent():
    for n in (1, 2, 16, 1024, 4096, 8192):
        e = ref.paper_exponent(n)
        assert e**100 >= n**49 and (e == 1 or (e - 1) ** 100 < n**49)
    assert ref.paper_exponent(1024) == 30


def test_kron_row_is_the_kronecker_power():
    f = np.array([[1, 1], [0, 1]], np.uint8)
    full = np.ones((1, 1), np.uint8)
    for _ in range(4):
        full = np.kron(full, f)
    for i in range(16):
        assert (ref.kron_row(16, i) == full[i]).all()


def test_unpack_and_column_ints():
    dense = np.array([[1, 0, 1], [0, 1, 1]], np.uint8)
    words = np.array([[0b101], [0b110]], np.uint64)
    assert (ref.unpack(words, 3) == dense).all()
    assert ref.column_ints(dense) == [0b01, 0b10, 0b11]
    assert (ref.int_bits(0b101, 3) == dense[0]).all()


def _rank_by_span(vectors):
    span = {0}
    for v in vectors:
        span |= {v ^ w for w in span}
    return len(span).bit_length() - 1


def test_gf2_rank_matches_span_size():
    rng = np.random.default_rng(5)
    for _ in range(200):
        vs = [int(x) for x in rng.integers(0, 1 << 6, size=rng.integers(0, 8))]
        assert ref.gf2_rank(vs) == _rank_by_span(vs)
        k = ref.independent_prefix(vs)
        assert _rank_by_span(vs[:k]) == k
        assert k == len(vs) or _rank_by_span(vs[: k + 1]) == k


def test_block_error_of_repetition_codes():
    p = F(1, 20)
    # length 3: errors need two or more flips, no ties
    h3 = np.array([[1, 1, 0], [0, 1, 1]], np.uint8)
    assert ref.block_error(h3, p) == 3 * p**2 * (1 - p) + p**3
    # length 2: one flip ties the two codewords, which counts as an error
    h2 = np.array([[1, 1]], np.uint8)
    assert ref.block_error(h2, p) == 1 - (1 - p) ** 2


def test_codewords_and_weights_of_hamming_code():
    h = np.array([[(j >> b) & 1 for j in range(1, 8)] for b in range(3)], np.uint8)
    words = ref.codewords(h)
    assert len(words) == 16
    assert ref.weight_counts(h) == [1, 0, 0, 7, 7, 0, 0, 1]
    # single errors are always corrected
    fails = ref.ml_failures(h)
    assert not any(fails[1 << j] for j in range(7))


def test_below_and_philox_words():
    assert ref.below(F(1, 2)) == 1 << 63
    assert ref.below(F(1)) == 1 << 64
    # the replays rely on consecutive draws continuing one stream
    bg = np.random.Philox(key=7, counter=3 << 128)
    split = np.concatenate([bg.random_raw(1), bg.random_raw(5)])
    assert (ref.philox_words(7, 3, 6) == split).all()


def test_binomial_cdf_and_wilson():
    assert ref.binomial_cdf(2, F(1, 2), 0) == F(1, 4)
    assert ref.binomial_cdf(3, F(1, 3), 3) == 1
    lo, hi = ref.wilson(0, 100, 1.96)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = ref.wilson(50, 100, 1.96)
    assert lo < 0.5 < hi
    assert ref.wilson(100, 100, 5.0)[1] == 1.0
