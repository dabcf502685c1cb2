"""Channel models and the certified Bhattacharyya machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest

from highgirth import (
    FieldSpec,
    SubStream,
    bhattacharyya_bsc,
    bhattacharyya_upper,
    bsc_transmit,
    mec_transmit,
    pairwise_tail,
    tail_dominated,
)
from highgirth.fields import vector

F = Fraction
GF2 = FieldSpec.gf2()
GF5 = FieldSpec.gfp(5)
RAT = FieldSpec.rational()


def stream_for(trial, seed=99):
    return SubStream(seed, trial)


def test_bsc_extremes():
    x = vector(GF2, [0, 1, 0, 1, 1, 0, 0, 1])
    out0 = bsc_transmit(x, F(0), stream_for(0))
    assert np.array_equal(out0.symbols, x)
    out1 = bsc_transmit(x, F(1), stream_for(1))
    assert np.array_equal(out1.symbols, 1 - np.asarray(x))
    assert len(out0.flagged) == 0


def test_bsc_flip_rate():
    x = vector(GF2, [0] * 4000)
    flips = 0
    for t in range(50):
        out = bsc_transmit(x, F(1, 10), stream_for(t))
        flips += int(np.asarray(out.symbols).sum())
    rate = flips / (50 * 4000)
    assert abs(rate - 0.1) < 0.01


def test_mec_extremes():
    for field in (GF2, GF5, RAT):
        if field.kind == "gf2":
            x = vector(field, [0, 1, 1, 0])
        elif field.kind == "gfp":
            x = vector(field, [0, 1, 4, 2])
        else:
            x = vector(field, [F(1, 2), F(-3), F(0), F(7)])
        keep = mec_transmit(field, x, F(0), stream_for(2))
        assert len(keep.flagged) == 0
        lose = mec_transmit(field, x, F(1), stream_for(3))
        assert lose.flagged.indices == (1, 2, 3, 4)


def test_mec_preserves_unflagged_symbols():
    x = vector(GF5, [0, 1, 2, 3, 4, 1, 2, 3])
    out = mec_transmit(GF5, x, F(1, 2), stream_for(4))
    dropped = set(out.flagged.zero_based())
    for j in range(8):
        if j not in dropped:
            assert out.symbols[j] == x[j]
    assert out.field == GF5


def test_mec_erasure_rate():
    x = vector(GF2, [0] * 3000)
    total = 0
    for t in range(40):
        out = mec_transmit(GF2, x, F(2, 5), stream_for(t, seed=123))
        total += len(out.flagged)
    rate = total / (40 * 3000)
    assert abs(rate - 0.4) < 0.01


def test_bhattacharyya_float():
    assert bhattacharyya_bsc(F(1, 2)) == 1.0
    assert bhattacharyya_bsc(F(0)) == 0.0
    assert math.isclose(bhattacharyya_bsc("0.05"), 2 * math.sqrt(0.05 * 0.95))
    with pytest.raises(TypeError):
        bhattacharyya_bsc(0.05)  # bare floats are always refused


def test_bhattacharyya_upper_certified():
    # rational bound must dominate the true value: compare through squares
    for p in (F(1, 20), F(1, 10), F(1, 4), F(2, 5), F(1, 2), F(1, 1000)):
        z = bhattacharyya_upper(p)
        assert z <= 1
        assert z * z >= 4 * p * (1 - p)
        # and it should be tight to within the scale resolution
        assert z * z <= 4 * p * (1 - p) + F(1, 2 ** 60)
    assert bhattacharyya_upper(F(1, 2)) == 1
    assert bhattacharyya_upper(F(0)) == 0


def test_pairwise_tail_frozen():
    # distance-4 two-codeword error probability at p = 1/10
    assert pairwise_tail(4, F(1, 10)) == F(523, 10000)
    z4 = (4 * F(1, 10) * F(9, 10)) ** 2
    assert z4 == F(1296, 10000)
    assert pairwise_tail(4, F(1, 10)) <= z4


def test_pairwise_tail_formula():
    # w=1: flip beats the sent bit with probability p, ties counted in
    assert pairwise_tail(1, F(1, 4)) == F(1, 4)
    # w=2: one flip ties (counted as error), two flips win
    p, q = F(1, 4), F(3, 4)
    assert pairwise_tail(2, p) == 2 * p * q + p * p


def test_tail_dominated_sweep():
    for w in range(1, 21):
        for p in (F(1, 20), F(1, 10), F(1, 4)):
            assert tail_dominated(w, p)


def test_channel_rejects_bad_probability():
    x = vector(GF2, [0, 1])
    with pytest.raises(ValueError):
        bsc_transmit(x, F(3, 2), stream_for(0))
    with pytest.raises(ValueError):
        mec_transmit(GF2, x, F(-1, 2), stream_for(0))


def test_flagged_positions_equal_the_checked_column_set():
    # the channels build their sets without ColumnSet's check loop; the
    # result must equal the checked set, and the check still guards
    # every other input
    from highgirth.channels import _flagged
    from highgirth.fields import ColumnSet

    rng = np.random.default_rng(5)
    masks = [rng.random(n) < p for n in (1, 16, 1024) for p in (0.1, 0.5)]
    masks += [np.zeros(16, np.uint8), np.ones(16, np.uint8), np.zeros(0, np.uint8)]
    for m in masks:
        got = _flagged(np.asarray(m, np.uint8))
        want = ColumnSet.of(int(j) + 1 for j in np.flatnonzero(m))
        assert got == want and got.indices == want.indices
        assert all(type(i) is int for i in got.indices)
    for bad in ((2, 1), (1, 1), (0, 1), (True, 2), (1.0,)):
        with pytest.raises(ValueError):
            ColumnSet(bad)
