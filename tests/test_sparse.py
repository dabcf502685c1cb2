"""Sparse supports, spark certificates, and exact minimum-support recovery."""

import random
from fractions import Fraction

import numpy as np
import pytest

from highgirth import (
    BernoulliSupport,
    ColumnSet,
    FieldSpec,
    Matrix,
    SparseSignal,
    SubStream,
    UniformSupport,
    draw_signal,
    exact_girth,
    l0_recover,
    measure,
    spark_certificate,
    support_failure_expectation,
    support_failure_rate,
    support_report,
    vandermonde,
)
from highgirth.fields import vectors_equal

F = Fraction
GF2 = FieldSpec.gf2()
GF5 = FieldSpec.gfp(5)
RAT = FieldSpec.rational()


# ---------------------------------------------------------------- signals

def test_draw_signal_uniform_support():
    for trial in range(20):
        sig = draw_signal(RAT, 10, UniformSupport(3), SubStream(4, trial))
        assert sig.n == 10
        assert len(sig.support) == 3
        assert all(v != 0 for v in sig.values)
        dense = sig.dense()
        assert [dense[i] for i in sig.support.zero_based()] == list(sig.values)


def test_draw_signal_bernoulli_support():
    total = 0
    for trial in range(200):
        sig = draw_signal(GF5, 40, BernoulliSupport(F(1, 4)), SubStream(6, trial))
        total += len(sig.support)
        assert all(v != 0 for v in sig.values)
    assert abs(total / (200 * 40) - 0.25) < 0.03


@pytest.mark.parametrize("field", [GF5, RAT], ids=str)
def test_bernoulli_support_draws_are_pinned_at_rates_0_and_1(field):
    # the support takes n words at every rate, so the values and whatever
    # the stream draws next sit at the same place at q = 0, 1 and between
    n, seed, trial = 6, 21, 3
    for q in (F(0), F(1)):
        stream = SubStream(seed, trial)
        sig = draw_signal(field, n, BernoulliSupport(q), stream)
        replay = SubStream(seed, trial)
        replay.raw(n)
        bound = 4 if field == GF5 else 9
        want = [1 + replay.integer_below(bound) for _ in sig.support]
        assert sig.support == (ColumnSet.full(n) if q else ColumnSet.empty())
        assert list(sig.values) == want
        assert stream.raw(2).tolist() == replay.raw(2).tolist()
    # the same draws as literals
    at_one = draw_signal(field, n, BernoulliSupport(F(1)), SubStream(seed, trial)).values
    assert list(at_one) == ([2, 4, 2, 4, 4, 2] if field == GF5 else [5, 1, 8, 2, 1, 7])
    empty = SubStream(seed, trial)
    assert draw_signal(field, n, BernoulliSupport(F(0)), empty).values == ()
    assert empty.raw(2).tolist() == [13658476771833500497, 14310362697650816319]


def test_model_names():
    assert UniformSupport(3).name() == "uniform:3"
    assert BernoulliSupport(F(1, 4)).name() == "bernoulli:1/4"


def test_measure_matches_dense_product():
    a = vandermonde(RAT, 3, [1, 2, 3, 4, 5])
    sig = SparseSignal(RAT, 5, ColumnSet.of([2, 4]), (F(1), F(-2)))
    y = measure(a, sig)
    dense = sig.dense()
    manual = [sum(row[j] * dense[j] for j in range(5)) for row in a.to_rows()]
    assert vectors_equal(y, manual)


def test_sparse_signal_validation():
    with pytest.raises(ValueError):
        SparseSignal(RAT, 4, ColumnSet.of([1, 2]), (F(1),))
    with pytest.raises(ValueError):
        SparseSignal(RAT, 4, ColumnSet.of([5]), (F(1),))
    with pytest.raises(ValueError):
        SparseSignal(GF5, 4, ColumnSet.of([2, 7]), (1, 3))


# ---------------------------------------------------------------- spark

def test_spark_certified():
    # girth 5 means every 4-column subset is independent: 2-sparse safe
    a = vandermonde(RAT, 4, [1, 2, 3, 4, 5, 6, 7, 8])
    res = spark_certificate(a, 2)
    assert res.status == "certified"
    assert res.witness is None
    assert res.k == 2


def test_spark_refuted_with_witness():
    a = Matrix.from_rows(RAT, [[1, 0, 1], [0, 1, 1]])
    res = spark_certificate(a, 2)
    assert res.status == "refuted"
    assert res.witness is not None and len(res.witness) <= 4
    # the witness really is a dependent set
    from highgirth import columns_independent

    assert not columns_independent(a, res.witness)


def test_spark_budget():
    a = vandermonde(RAT, 6, list(range(1, 25)))
    res = spark_certificate(a, 3, budget=10)
    assert res.status == "budget"


def test_spark_agrees_with_girth():
    rng = random.Random(31)
    for _ in range(10):
        nrows = rng.randrange(2, 5)
        ncols = rng.randrange(2, 7)
        rows = [[rng.randrange(3) for _ in range(ncols)] for _ in range(nrows)]
        a = Matrix.from_rows(GF5, rows)
        g = exact_girth(a)
        for k in range(1, 3):
            res = spark_certificate(a, k)
            # g == ncols + 1 marks full independence: nothing to refute
            if g == a.ncols + 1 or g > 2 * k:
                assert res.status == "certified"
            else:
                assert res.status == "refuted"


# ---------------------------------------------------------------- failure rates

def test_support_failure_rate_extremes():
    a = Matrix.from_rows(RAT, [[1, 0, 1], [0, 1, 1]])
    sure = support_failure_rate(a, UniformSupport(3), 100, 2)
    assert sure.estimate == 1.0  # all three columns are dependent
    never = support_failure_rate(a, UniformSupport(1), 100, 2)
    assert never.estimate == 0.0


def test_support_failure_rate_matches_expectation():
    a = Matrix.from_rows(RAT, [[1, 0, 1], [0, 1, 1]])
    exact = support_failure_expectation(a, BernoulliSupport(F(1, 2)))
    assert exact == F(1, 8)
    rep = support_failure_rate(a, BernoulliSupport(F(1, 2)), 20000, 13)
    lo, hi = rep.interval()
    assert lo <= float(exact) <= hi


def test_support_failure_expectation_uniform():
    # failure iff the chosen pair is the single dependent pair
    a = Matrix.from_rows(RAT, [[1, 1, 0], [2, 2, 1]])
    assert support_failure_expectation(a, UniformSupport(2)) == F(1, 3)


def test_support_report_structure():
    a = Matrix.from_rows(RAT, [[1, 0, 1], [0, 1, 1]])
    rep = support_failure_rate(a, UniformSupport(2), 500, 21)
    cert = spark_certificate(a, 2)
    js = support_report(a, UniformSupport(2), rep, cert)
    assert js["matrix"] == {"rows": 2, "cols": 3, "field": "rational"}
    assert js["k"] == 2
    assert js["model"] == "uniform:2"
    assert js["trials"] == 500 and js["seed"] == 21
    assert js["failures"] == rep.successes
    assert js["certificate"]["status"] == "refuted"
    js2 = support_report(a, BernoulliSupport(F(1, 3)), rep)
    assert js2["k"] is None and js2["certificate"] is None


# ---------------------------------------------------------------- recovery

def test_l0_recovery_unique():
    a = vandermonde(RAT, 4, [1, 2, 3, 4, 5, 6, 7, 8])
    planted = SparseSignal(RAT, 8, ColumnSet.of([3, 7]), (F(2), F(-1)))
    y = measure(a, planted)
    res = l0_recover(a, y, 2)
    assert res.status == "unique"
    assert res.signal.support == planted.support
    assert res.signal.values == planted.values


@pytest.mark.parametrize(
    "field, nodes, values",
    [(RAT, [1, 2, 3, 4, 5, 6], (F(1), F(-1))), (GF5, [0, 1, 2, 3, 4], (1, 4))],
    ids=["rational", "gfp:5"],
)
def test_l0_recovery_all_supports_exhaustive(field, nodes, values):
    n = len(nodes)
    a = vandermonde(field, 4, nodes)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            planted = SparseSignal(field, n, ColumnSet.of([i, j]), values)
            y = measure(a, planted)
            res = l0_recover(a, y, 2)
            assert res.status == "unique", (i, j)
            assert res.signal.support.indices == (i, j)
            assert list(res.signal.values) == list(values)


def test_l0_not_unique():
    # two disjoint pairs explain the same measurement: c1+c2 = c3+c4
    a = Matrix.from_rows(
        RAT,
        [[1, 0, 2, -1], [0, 1, 3, -2], [1, 1, 5, -3]],
    )
    # col1+col2 = (1,1,2)... engineer instead: y = col3+col4 = (1,1,2) = col1+col2
    y = [1, 1, 2]
    res = l0_recover(a, y, 2)
    assert res.status == "not_unique"
    assert len(res.witnesses) == 2


def test_l0_none_found():
    a = Matrix.from_rows(RAT, [[1, 0], [0, 1], [0, 0]])
    res = l0_recover(a, [0, 0, 1], 2)
    assert res.status == "none_found"


def test_l0_budget():
    a = vandermonde(RAT, 4, list(range(1, 21)))
    y = measure(a, SparseSignal(RAT, 20, ColumnSet.of([1, 2, 3]), (F(1), F(1), F(1))))
    res = l0_recover(a, y, 3, budget=5)
    assert res.status == "budget"


def test_l0_zero_measurement_gives_empty_signal():
    a = vandermonde(RAT, 3, [1, 2, 3, 4])
    res = l0_recover(a, [0, 0, 0], 2)
    assert res.status == "unique"
    assert len(res.signal.support) == 0
