"""Acceptance gate: one criterion per test, one PASS/FAIL line per criterion.

Each test prints "[acceptance NN] <name>: PASS|FAIL" and then asserts, so
the verdict lines survive into the report either way.  Statistical checks
use pinned seeds; exact checks use rational arithmetic with zero tolerance.
"""

import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from highgirth import (
    ColumnSet,
    FieldSpec,
    Matrix,
    SelectionSpec,
    SparseSignal,
    bhattacharyya_sum,
    bhattacharyya_upper,
    bsc_error_rate,
    channel_bounds,
    check_matrix,
    code_from_pcm,
    exact_girth,
    expected_rank_oracle,
    full_rank_probability,
    girth_scan,
    kernel,
    l0_recover,
    matvec,
    measure,
    mec_error_rate,
    pairwise_tail,
    polarization_fractions,
    rank_profile,
    rank_profile_float,
    select_columns,
    sierpinski,
    sierpinski_transform,
    spark_certificate,
    tail_dominated,
    vandermonde,
    weight_enumerator,
    write_check_matrix,
)
from highgirth.fields import vector, vectors_equal

F = Fraction
GF2 = FieldSpec.gf2()
RAT = FieldSpec.rational()
THREADS = os.cpu_count() or 1


def verdict(num, name, ok):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_01_oracle_equality():
    t0 = time.time()
    ok = True
    fields = [GF2, FieldSpec.gfp(3), FieldSpec.gfp(5), RAT]
    for n in (2, 4, 8):
        for s in (F(1, 2), F(1, 3), F(3, 4)):
            prof = rank_profile(n, s)
            for field in fields:
                cum = [expected_rank_oracle(n, i, s, field) for i in range(n + 1)]
                diffs = tuple(cum[i + 1] - cum[i] for i in range(n))
                ok = ok and diffs == prof
    ok = ok and (time.time() - t0) <= 10.0
    assert verdict(1, "subset-enumeration oracle equals recursion", ok)


def test_02_martingale_conservation():
    t0 = time.time()
    rng = random.Random(20260822)
    ok = True
    rates = [F(rng.randrange(1, d), d) for d in (7, 10, 12, 13, 16)]
    for s in rates:
        for n in (2, 64, 1024, 4096):
            ok = ok and sum(rank_profile(n, s)) == n * s
    ok = ok and (time.time() - t0) <= 30.0
    assert verdict(2, "profile mass equals n*s exactly", ok)


def test_03_n4_profile():
    ok = rank_profile(4, F(1, 2)) == (F(15, 16), F(9, 16), F(7, 16), F(1, 16))
    assert verdict(3, "n=4 profile frozen values", ok)


def test_04_polarization_trend():
    t0 = time.time()
    ok = True
    d = F(1, 100)
    prev = None
    mids = []
    for exp in (4, 6, 8, 10, 12, 14):
        n = 1 << exp
        vals = rank_profile_float(n, F(1, 2))
        _, mid, _ = polarization_fractions(vals, d)
        mids.append(mid)
        if prev is not None:
            ok = ok and mid <= prev
        prev = mid
    ok = ok and mids[-1] <= F(35, 100)
    ok = ok and (time.time() - t0) <= 60.0
    assert verdict(4, "mid fraction shrinks and ends below 0.35", ok)


def test_05_full_rank_sampling():
    t0 = time.time()
    cm = check_matrix(1024, F(1, 2), SelectionSpec.auto())
    rep = full_rank_probability(cm, F(1, 2), 1000, 51, threads=THREADS)
    lo, hi = rep.interval()
    ok = rep.estimate >= 0.99 and 0.0 <= lo <= hi <= 1.0
    ok = ok and (time.time() - t0) <= 60.0
    assert verdict(5, "selected rows keep full rank under half sampling", ok)


def certified_floor(n, p, rows):
    # the Bhattacharyya sum over the unselected leaves bounds the erasure
    # decoder's failure probability (Arikan 2009), and decoding fails
    # exactly when the erased columns are dependent (criterion 7)
    return max(F(0), 1 - bhattacharyya_sum(n, p, rows))


def counting_ceiling(n, p, nrows):
    # more sampled columns than rows are always dependent, so independence
    # needs a Bin(n, p) draw of at most nrows columns
    return sum(math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(nrows + 1))


def test_06_girth_transition():
    t0 = time.time()
    n = 256
    cm = check_matrix(n, F(1, 2), SelectionSpec.top(102))
    grid = [F(k, 100) for k in range(10, 55, 5)] + [F(60, 100), F(65, 100)]
    res = girth_scan(cm.matrix, grid, 500, 61, threads=THREADS)
    floors = [certified_floor(n, p, cm.rows) for p in grid]
    ceilings = [counting_ceiling(n, p, cm.nchecks) for p in grid]
    low = [g for g in range(len(grid)) if floors[g] >= F(19, 20)]
    high = [g for g in range(len(grid)) if ceilings[g] <= F(1, 20)]
    rates = res.rates()
    intervals = res.intervals()
    for g, p in enumerate(grid):
        band = "low" if g in low else "high" if g in high else "open"
        print(
            f"  rate {float(p):.2f} ({band}): measured {rates[g]:.3f}"
            f"  certified floor {float(floors[g]):.4f}"
            f"  counting ceiling {float(ceilings[g]):.4f}"
        )
    row_rate = F(cm.nchecks, n)
    ok = bool(low) and bool(high)
    ok = ok and max(grid[g] for g in low) < row_rate < min(grid[g] for g in high)
    ok = ok and all(rates[g] >= 0.95 for g in low)
    ok = ok and all(rates[g] <= 0.05 for g in high)
    ok = ok and all(
        lo <= c and hi >= f for (lo, hi), f, c in zip(intervals, floors, ceilings)
    )
    ok = ok and (time.time() - t0) <= 120.0
    assert verdict(6, "independence transition at the selected rate", ok)


def test_07_erasure_failure_identity():
    cm = check_matrix(1024, F(2, 5), SelectionSpec.top(614))
    code = code_from_pcm(cm.matrix)
    rep = mec_error_rate(code, F(2, 5), 10000, 71, threads=THREADS)
    ok = (
        code.k == 410
        and rep["trials"] == 10000
        and rep["mismatches"] == 0
        and rep["p_hat"] == rep["dependence_rate"]
    )
    assert verdict(7, "decode failure iff erased columns dependent", ok)


def test_08_distance_equals_girth():
    rng = random.Random(81)
    ok = True
    codes = []
    while len(codes) < 20:
        n = rng.randrange(4, 17)
        nrows = rng.randrange(1, 9)
        rows = [[rng.randrange(2) for _ in range(n)] for _ in range(nrows)]
        code = code_from_pcm(Matrix.from_rows(GF2, rows))
        if 0 < code.k <= 10:
            codes.append(code)
    for n in (8, 16):
        cm = check_matrix(n, F(1, 2), SelectionSpec.auto())
        codes.append(code_from_pcm(cm.matrix))
    for code in codes:
        w = weight_enumerator(code).min_distance
        g = exact_girth(code.pcm)
        if w is None:
            ok = ok and g == code.n + 1
        else:
            ok = ok and w == g
    assert verdict(8, "minimum codeword weight equals check-matrix girth", ok)


def test_09_vandermonde_girth():
    m11 = vandermonde(FieldSpec.gfp(11), 4, [1, 2, 3, 4, 5, 6, 7, 8])
    mq = vandermonde(RAT, 4, [1, 2, 3, 4, 5, 6, 7, 8])
    ok = exact_girth(m11) == 5 and exact_girth(mq) == 5
    assert verdict(9, "4x8 vandermonde girth is five", ok)


def test_10_bsc_bounds():
    t0 = time.time()
    s = bhattacharyya_upper(F(1, 20))
    cm = check_matrix(16, s, SelectionSpec.top(12))
    code = code_from_pcm(cm.matrix)
    bounds = channel_bounds(code, "bsc", F(1, 20), rows=cm.rows)
    rep = bsc_error_rate(code, F(1, 20), 100000, 101, threads=THREADS)
    half = (rep["ci_hi"] - rep["ci_lo"]) / 2.0
    ok = code.k >= 4
    ok = ok and rep["p_hat"] <= bounds["union_float"] + 3.0 * half
    ok = ok and rep["p_hat"] <= bounds["bhatt_float"] + 3.0 * half
    ok = ok and (time.time() - t0) <= 120.0
    assert verdict(10, "block error rate under both certified bounds", ok)


def test_11_binomial_tail_domination():
    ok = True
    for w in range(1, 21):
        for p in (F(1, 20), F(1, 10), F(1, 4)):
            zsq = 4 * p * (1 - p)
            t = pairwise_tail(w, p)
            # compare t <= z**w through squares to stay rational
            ok = ok and t * t <= zsq ** w
            ok = ok and tail_dominated(w, p)
    assert verdict(11, "pairwise tail below bhattacharyya power", ok)


def test_12_sparse_recovery():
    t0 = time.time()
    ok = True
    # certified side: exhaustive +-1 planting on girth-5 matrices
    for a in (
        vandermonde(RAT, 4, [1, 2, 3, 4, 5, 6, 7, 8]),
        vandermonde(RAT, 4, [2, 3, 5, 7, 11, 13]),
    ):
        cert = spark_certificate(a, 2)
        ok = ok and cert.status == "certified"
        n = a.ncols
        supports = [(i,) for i in range(1, n + 1)]
        supports += list(itertools.combinations(range(1, n + 1), 2))
        for supp in supports:
            for signs in itertools.product((F(1), F(-1)), repeat=len(supp)):
                planted = SparseSignal(RAT, n, ColumnSet.of(supp), signs)
                y = measure(a, planted)
                res = l0_recover(a, y, 2)
                good = (
                    res.status == "unique"
                    and res.signal.support == planted.support
                    and res.signal.values == planted.values
                )
                ok = ok and good
    # refuted side: the witness dependency splits into two same-size halves
    refuted = [
        Matrix.from_rows(RAT, [[1, 2, 0], [0, 0, 1]]),  # proportional pair
        Matrix.from_rows(RAT, [[1, 0, 1, 0], [0, 1, 1, 0], [0, 1, 0, 1]]),
    ]
    for a in refuted:
        cert = spark_certificate(a, 2)
        ok = ok and cert.status == "refuted"
        if cert.status != "refuted":
            continue
        cols = list(cert.witness.indices)
        sub = select_columns(a, cert.witness)
        coeffs = kernel(sub).vectors[0]
        half = len(cols) // 2
        dense = [F(0)] * a.ncols
        for j, c in zip(cols[:half], list(coeffs)[:half]):
            dense[j - 1] = F(c)
        y = [
            sum(row[j] * dense[j] for j in range(a.ncols))
            for row in a.to_rows()
        ]
        res = l0_recover(a, y, 2)
        ok = ok and res.status == "not_unique"
    ok = ok and (time.time() - t0) <= 60.0
    assert verdict(12, "unique recovery exactly where certified", ok)


def test_13_transform_involution():
    rng = random.Random(131)
    ok = True
    for n in (2, 1 << 8, 1 << 12, 1 << 16):
        x = vector(GF2, [rng.randrange(2) for _ in range(n)])
        y = sierpinski_transform(GF2, sierpinski_transform(GF2, x))
        ok = ok and vectors_equal(x, y)
    for field in (GF2, FieldSpec.gfp(3), RAT):
        for n in (2, 64, 1 << 10):
            if field.kind == "gf2":
                x = vector(field, [rng.randrange(2) for _ in range(n)])
            elif field.kind == "gfp":
                x = vector(field, [rng.randrange(3) for _ in range(n)])
            else:
                x = vector(field, [F(rng.randrange(-2, 3)) for _ in range(n)])
            ok = ok and vectors_equal(
                sierpinski_transform(field, x), matvec(sierpinski(n, field), x)
            )
    assert verdict(13, "butterfly equals dense transform and self-inverts", ok)


def test_14_simulate_determinism(tmp_path):
    pcm_mec = str(tmp_path / "h64.txt")
    write_check_matrix(check_matrix(64, F(1, 2), SelectionSpec.auto()), pcm_mec)
    pcm_bsc = str(tmp_path / "h16.txt")
    write_check_matrix(check_matrix(16, F(1, 2), SelectionSpec.top(12)), pcm_bsc)
    ok = True
    for channel, pcm in (("mec", pcm_mec), ("bsc", pcm_bsc)):
        outs = []
        for threads in ("1", "4"):
            out = str(tmp_path / f"{channel}_{threads}.json")
            res = subprocess.run(
                [
                    sys.executable, "-m", "highgirth.cli", "simulate", channel,
                    "--pcm", pcm, "--p", "1/4", "--trials", "300", "--seed", "9",
                    "--threads", threads, "--out", out,
                ],
                capture_output=True,
                timeout=600,
            )
            ok = ok and res.returncode == 0
            outs.append(open(out, "rb").read())
        ok = ok and outs[0] == outs[1] and len(outs[0]) > 0
    assert verdict(14, "thread count never changes report bytes", ok)
