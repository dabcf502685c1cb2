"""Rank profile recursion, leaf ordering, selection, and threshold defaults."""

import functools
import io
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from highgirth import (
    ColumnSet,
    SelectionSpec,
    bhattacharyya_sum,
    compute_profile,
    default_threshold,
    default_threshold_exponent,
    ell,
    polarization_fractions,
    profile_leaf,
    rank_profile,
    rank_profile_float,
    rr,
    select_rows,
    select_rows_fast,
)
from highgirth import polarize
from highgirth.polarize import (
    _tail_enclosure,
    read_profile_csv,
    write_profile_csv,
)

F = Fraction


def random_s(rng):
    den = rng.randrange(2, 50)
    return F(rng.randrange(1, den), den)


# ---------------------------------------------------------------- recursion

def test_split_conserves_mass():
    rng = random.Random(11)
    for _ in range(50):
        x = F(rng.randrange(0, 101), 100)
        assert ell(x) + rr(x) == 2 * x
        assert rr(x) == x * x
        if 0 <= x <= 1:
            assert rr(x) <= x <= ell(x) <= 1


def test_profile_frozen_values():
    assert rank_profile(2, F(1, 2)) == (F(3, 4), F(1, 4))
    assert rank_profile(4, F(1, 2)) == (F(15, 16), F(9, 16), F(7, 16), F(1, 16))
    assert rank_profile(2, F(1, 3)) == (F(5, 9), F(1, 9))
    assert rank_profile(1, F(2, 7)) == (F(2, 7),)


def test_profile_degenerate_rates():
    for n in (1, 2, 8):
        assert rank_profile(n, F(0)) == tuple([F(0)] * n)
        assert rank_profile(n, F(1)) == tuple([F(1)] * n)


def test_profile_doubling_structure():
    # the first half of the tree descends through the boosted branch
    rng = random.Random(22)
    for _ in range(10):
        s = random_s(rng)
        for n in (1, 2, 4, 8):
            top = rank_profile(2 * n, s)
            assert top[:n] == rank_profile(n, ell(s))
            assert top[n:] == rank_profile(n, rr(s))


def test_martingale_total():
    rng = random.Random(33)
    for n in (1, 2, 4, 64, 256):
        for _ in range(5):
            s = random_s(rng)
            prof = rank_profile(n, s)
            assert sum(prof) == n * s
    # one deep case; the acceptance suite covers the full sweep
    assert sum(rank_profile(2048, F(2, 5))) == 2048 * F(2, 5)


def test_profile_leaf_matches_profile():
    rng = random.Random(44)
    for n in (1, 2, 8, 32):
        s = random_s(rng)
        prof = rank_profile(n, s)
        for i in range(1, n + 1):
            assert profile_leaf(n, i, s) == prof[i - 1]


def test_profile_rejects_bad_input():
    with pytest.raises(ValueError):
        rank_profile(3, F(1, 2))
    with pytest.raises(ValueError):
        rank_profile(4, F(3, 2))
    with pytest.raises(ValueError):
        profile_leaf(4, 0, F(1, 2))
    with pytest.raises(ValueError):
        profile_leaf(4, 5, F(1, 2))


# ---------------------------------------------------------------- float path

def float_error_bound(n):
    # documented float-profile error: below 2**(levels-52), stated here
    # with a 4x margin and never finer than 2**-40
    return max(2.0**-40, 2.0 ** (n.bit_length() - 1 - 50))


def test_float_profile_tracks_exact():
    for n in (2, 16, 256, 1024):
        s = F(1, 3)
        exact = rank_profile(n, s)
        approx = rank_profile_float(n, s)
        assert approx.shape == (n,)
        worst = max(abs(float(e) - a) for e, a in zip(exact, approx))
        assert worst <= float_error_bound(n)


def test_guard_band_covers_rounding():
    # deep enough that the bound 2**(levels-50) is the binding one
    n = 1 << 14
    approx = rank_profile_float(n, F(2, 5))
    for i in range(1, n + 1, 97):
        err = abs(float(profile_leaf(n, i, F(2, 5))) - approx[i - 1])
        assert err <= float_error_bound(n) == 2.0**-36


def test_compute_profile_modes():
    p = compute_profile(8, F(1, 2))
    assert p.exact and len(p.values) == 8
    q = compute_profile(8, F(1, 2), exact=False)
    assert not q.exact
    assert all(isinstance(v, float) for v in q.values)
    band = float_error_bound(8)
    assert all(abs(a - float(b)) <= band for a, b in zip(q.values, p.values))


def test_tail_enclosure_contains_exact_tail():
    # side True means the tail is 1 - v; its log2 must lie in [lo, hi]
    for s in (F(0), F(1, 3), F(2, 5), F(1, 2), F(3, 4), F(1)):
        for levels in range(11):
            n = 1 << levels
            side, lo, hi = _tail_enclosure(n, s)
            assert side.shape == lo.shape == hi.shape == (n,)
            with localcontext() as ctx:
                ctx.prec = 60
                ln2 = Decimal(2).ln()
                for v, sd, a, b in zip(rank_profile(n, s), side, lo, hi):
                    tail = 1 - v if sd else v
                    log_tail = (Decimal(tail.numerator) / tail.denominator).ln() / ln2
                    assert Decimal(a) <= log_tail <= Decimal(b) <= 0, (n, s, v)


# ---------------------------------------------------------------- selection

def test_threshold_exponent_frozen():
    frozen = {16: 4, 64: 8, 256: 16, 1024: 30, 4096: 59, 16384: 117}
    for n, e in frozen.items():
        assert default_threshold_exponent(n) == e
        assert default_threshold(n) == 1 - F(1, 2 ** e)


def test_threshold_selection_is_strict():
    # profile(2, 9/10) = (99/100, 81/100); the boundary leaf stays out
    sel = SelectionSpec.at_threshold(F(9, 10))
    assert select_rows(2, F(9, 10), sel).indices == (1,)
    sel2 = SelectionSpec.at_threshold(F(81, 100))
    assert select_rows(2, F(9, 10), sel2).indices == (1,)
    sel3 = SelectionSpec.at_threshold(F(80, 100))
    assert select_rows(2, F(9, 10), sel3).indices == (1, 2)


def test_top_selection_prefers_small_index_on_ties():
    # profile(2, 1) is all ones; top:1 must break the tie deterministically
    got = select_rows(2, F(1), SelectionSpec.top(1))
    assert got.indices == (1,)
    got4 = select_rows(4, F(1, 2), SelectionSpec.top(2))
    assert got4.indices == (1, 2)


def test_fast_selection_matches_exact(monkeypatch):
    # select_rows recomputes the exact profile per call; share it
    monkeypatch.setattr(polarize, "rank_profile", functools.cache(polarize.rank_profile))
    rng = random.Random(55)
    for n in (2, 4, 16, 64, 256, 1024):
        specs = [
            SelectionSpec.auto(),
            SelectionSpec.top(min(3, n)),
            SelectionSpec.at_threshold(F(3, 4)),
        ]
        for _ in range(4):
            s = random_s(rng)
            for spec in specs:
                a = select_rows(n, s, spec)
                b = select_rows_fast(n, s, spec)
                assert a.indices == b.indices, (n, s, spec.name())
    # exact top selection sorts big Fractions, so n = 4096 takes one m
    for n, rates, counts in (
        (1024, (F(1, 2), F(2, 5), F(5, 7)), (1, 204, 512, 1023)),
        (4096, (F(1, 2),), (819,)),
    ):
        for s in rates:
            specs = [SelectionSpec.auto()]
            specs += [SelectionSpec.top(m) for m in counts]
            specs += [SelectionSpec.at_threshold(t) for t in (F(0), F(1, 2), F(3, 4), F(1))]
            for spec in specs:
                a = select_rows(n, s, spec)
                b = select_rows_fast(n, s, spec)
                assert a.indices == b.indices, (n, s, spec.name())


def test_fast_selection_ties_at_degenerate_rates():
    # s = 0 or 1 makes every leaf equal: top:m must take the first m
    for n in (2, 64, 4096):
        for s in (F(0), F(1)):
            for m in (1, 3, n // 2, n - 1, n):
                spec = SelectionSpec.top(min(m, n))
                assert select_rows_fast(n, s, spec) == select_rows(n, s, spec)
            for t in (F(0), F(1, 2), F(1)):
                spec = SelectionSpec.at_threshold(t)
                assert select_rows_fast(n, s, spec) == select_rows(n, s, spec)


def test_fast_selection_boundary_leaves():
    # thresholds sitting exactly on a leaf value force the exact recheck
    for n in (4, 16, 64):
        prof = rank_profile(n, F(1, 2))
        for t in set(prof):
            spec = SelectionSpec.at_threshold(t)
            assert select_rows(n, F(1, 2), spec) == select_rows_fast(n, F(1, 2), spec)
    rng = random.Random(66)
    for n in (64, 256):
        for s in (F(1, 2), F(2, 3), F(7, 9)):
            prof = rank_profile(n, s)
            for t in rng.sample(sorted(set(prof)), 24):
                spec = SelectionSpec.at_threshold(t)
                assert select_rows(n, s, spec) == select_rows_fast(n, s, spec), (n, s, t)


def fraction_selection(n, s, spec):
    """Selection read off the Fraction profile, leaf by leaf."""
    spec = spec.resolve(n)
    prof = rank_profile(n, s)
    if spec.mode == "threshold":
        return tuple(j + 1 for j in range(n) if prof[j] > spec.threshold)
    order = sorted(range(n), key=lambda j: (-prof[j], j))
    return tuple(sorted(j + 1 for j in order[: spec.count]))


def test_selection_matches_fraction_reference():
    # integer numerators over the shared denominator must order leaves as
    # their Fractions do, ties included, and cut on leaf values as > does
    rng = random.Random(77)
    for n in (2, 16, 64, 256):
        for s in (F(0), F(1), F(1, 2), F(2, 5), F(5, 7)):
            prof = rank_profile(n, s)
            specs = [SelectionSpec.auto()]
            specs += [SelectionSpec.top(m) for m in sorted({1, 2, n // 3 or 1, n // 2, n - 1, n})]
            cuts = sorted(set(prof))
            cuts = rng.sample(cuts, min(12, len(cuts))) + [F(0), F(1)]
            specs += [SelectionSpec.at_threshold(t) for t in cuts]
            for spec in specs:
                want = fraction_selection(n, s, spec)
                assert select_rows(n, s, spec).indices == want, (n, s, spec.name())
                assert select_rows_fast(n, s, spec).indices == want, (n, s, spec.name())


def test_leaf_numerator_shares_the_denominator():
    for n, s in ((1, F(2, 3)), (8, F(2, 5)), (64, F(1, 2)), (32, F(6, 9))):
        for i in range(1, n + 1):
            a, den = polarize._leaf_numerator(n, i, s)
            assert den == s.denominator ** n
            assert F(a, den) == profile_leaf(n, i, s) == rank_profile(n, s)[i - 1]


def test_fast_selection_exact_leaf_count(monkeypatch):
    # the paper's threshold at n = 8192 sits far below float64's absolute
    # resolution; the log-domain enclosure still decides almost every leaf
    calls = []
    leaf = polarize._leaf_numerator

    def counting(n, i, s):
        calls.append(i)
        return leaf(n, i, s)

    monkeypatch.setattr(polarize, "_leaf_numerator", counting)
    for s, kept in ((F(1, 2), 1687), (F(2, 5), 1145)):
        calls.clear()
        assert len(select_rows_fast(8192, s, SelectionSpec.auto())) == kept
        assert len(calls) <= 4, (s, len(calls))


def test_selection_spec_parse_roundtrip():
    for text, name in [
        ("auto", "auto"),
        ("paper", "auto"),
        ("top:7", "top:7"),
        ("thr:3/4", "thr:3/4"),
    ]:
        spec = SelectionSpec.parse(text)
        assert spec.name() == name
        again = SelectionSpec.from_json(spec.to_json())
        assert again == spec
    with pytest.raises(ValueError):
        SelectionSpec.parse("top:0")
    with pytest.raises(ValueError):
        SelectionSpec.parse("nope")


def test_selection_resolve_fixes_auto():
    spec = SelectionSpec.auto().resolve(16)
    assert spec.mode == "threshold"
    assert spec.threshold == default_threshold(16)
    top = SelectionSpec.top(3).resolve(16)
    assert top == SelectionSpec.top(3)
    # count validation happens where the profile length is known
    with pytest.raises(ValueError):
        select_rows(16, F(1, 2), SelectionSpec.top(17))


# ---------------------------------------------------------------- fractions

def test_polarization_fractions_strict():
    prof = rank_profile(4, F(1, 2))  # 15/16, 9/16, 7/16, 1/16
    lo, mid, hi = polarization_fractions(prof, F(1, 16))
    assert (lo, mid, hi) == (F(0), F(1), F(0))
    lo, mid, hi = polarization_fractions(prof, F(1, 8))
    assert (lo, mid, hi) == (F(1, 4), F(1, 2), F(1, 4))
    assert lo + mid + hi == 1
    with pytest.raises(ValueError):
        polarization_fractions(prof, F(1, 2))
    with pytest.raises(ValueError):
        polarization_fractions(prof, F(0))


def test_polarization_mass_concentrates():
    d = F(1, 100)
    prev = None
    for n in (16, 256, 4096):
        _, mid, _ = polarization_fractions(rank_profile(n, F(1, 2)), d)
        if prev is not None:
            assert mid <= prev
        prev = mid


# ---------------------------------------------------------------- leaf sums

def test_leaf_sum_frozen():
    assert bhattacharyya_sum(4, F(1, 2), ColumnSet.of([1, 2])) == F(1, 2)
    assert bhattacharyya_sum(4, F(1, 2), ColumnSet.empty()) == 2
    assert bhattacharyya_sum(4, F(1, 2), ColumnSet.full(4)) == 0


def test_bhattacharyya_sum_equals_per_leaf_fraction_sum():
    # the sum runs on leaf numerators over their shared denominator; the
    # reference adds one reduced Fraction per leaf
    rng = random.Random(29)
    for n in (16, 256, 1024):
        for z in (F(0), F(1, 2), F(2, 5), F(3, 10), F(5, 7), F(1)):
            picked = ColumnSet.of(rng.sample(range(1, n + 1), n // 3))
            for rows in (ColumnSet.empty(), picked, ColumnSet.full(n)):
                want = n * z - sum((profile_leaf(n, i, z) for i in rows), F(0))
                assert bhattacharyya_sum(n, z, rows) == want, (n, z, len(rows))


# ---------------------------------------------------------------- csv io

def test_profile_csv_roundtrip():
    prof = compute_profile(8, F(1, 3))
    buf = io.StringIO()
    write_profile_csv(prof.values, True, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "# mode: exact"
    assert text.splitlines()[1] == "index,rho"
    exact, values = read_profile_csv(io.StringIO(text))
    assert exact and tuple(values) == prof.values

    proff = compute_profile(8, F(1, 3), exact=False)
    buf2 = io.StringIO()
    write_profile_csv(proff.values, False, buf2)
    assert buf2.getvalue().splitlines()[0] == "# mode: float"
    exact2, values2 = read_profile_csv(io.StringIO(buf2.getvalue()))
    assert not exact2
    assert np.allclose(values2, proff.values)
