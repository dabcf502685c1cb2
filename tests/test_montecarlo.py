"""Counter-based sampling streams, trial running, and interval estimates."""

import math
import threading
from fractions import Fraction

import numpy as np
import pytest

from highgirth import (
    RNG_ID,
    SelectionSpec,
    SubStream,
    TrialReport,
    UniformSupport,
    bsc_error_rate,
    check_matrix,
    code_from_pcm,
    full_rank_probability,
    girth_scan,
    mec_error_rate,
    run_trials,
    support_failure_rate,
    wilson_interval,
)
from highgirth.montecarlo import _PHILOX_M, _blocks, _mulhilo, _raw_words

F = Fraction


def test_rng_id_is_pinned():
    assert RNG_ID == "philox4x64-v1"


def test_substream_deterministic():
    a = SubStream(42, 7).raw(16)
    b = SubStream(42, 7).raw(16)
    assert np.array_equal(a, b)
    c = SubStream(42, 8).raw(16)
    assert not np.array_equal(a, c)
    d = SubStream(43, 7).raw(16)
    assert not np.array_equal(a, d)


def test_substream_draws_are_sequential():
    # two raws from one stream differ from each other but replay together
    s = SubStream(5, 0)
    first = s.raw(8)
    second = s.raw(8)
    assert not np.array_equal(first, second)
    s2 = SubStream(5, 0)
    assert np.array_equal(s2.raw(8), first)
    assert np.array_equal(s2.raw(8), second)


def test_substream_validates_inputs():
    with pytest.raises(ValueError):
        SubStream(-1, 0)
    with pytest.raises(ValueError):
        SubStream(1 << 64, 0)
    with pytest.raises(ValueError):
        SubStream(0, -1)


@pytest.mark.parametrize("seed", [0, 1, 1 << 63, (1 << 64) - 1])
def test_raw_words_match_substreams(seed):
    for nwords in (0, 1, 3, 4, 5, 20, 21):
        for trials in (0, 1, 600):
            words = _raw_words(seed, 0, trials, nwords)
            assert words.shape == (trials, nwords) and words.dtype == np.uint64
            for t in range(trials):
                assert np.array_equal(words[t], SubStream(seed, t).raw(nwords)), (nwords, t)
    # a block that starts past trial 0 holds those trials' words
    assert np.array_equal(_raw_words(seed, 598, 600, 21), _raw_words(seed, 0, 600, 21)[598:])
    # the runner's replay: consecutive blocks of at most size trials, in
    # order, row t holding SubStream(seed, t)'s words
    want = [SubStream(seed, t).raw(21).tolist() for t in range(13)]
    for size in (1, 3, 12, 13, 14):
        blocks = list(_blocks(13, seed, 1, size, 21))
        assert [len(b) for b in blocks] == [min(size, 13 - s) for s in range(0, 13, size)]
        assert np.concatenate(blocks).tolist() == want, size


@pytest.mark.parametrize("first", [0, 7, 1 << 32, (1 << 63) - 5])
@pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
def test_raw_word_ranges_match_substreams(seed, first):
    # first >= 2**32 puts a nonzero high half in the trial counter from round 1 on
    trials = 3
    full = [SubStream(seed, first + i).raw(24) for i in range(trials)]
    for a in (0, 1, 3, 4, 5):
        for b in (a + 1, a + 2, 7, 10, 21, 23):
            if b <= a or b % 4 == 0:
                continue
            words = _raw_words(seed, first, first + trials, range(a, b))
            assert words.shape == (trials, b - a) and words.dtype == np.uint64
            for i in range(trials):
                assert np.array_equal(words[i], full[i][a:b]), (a, b, i)
    for empty in (range(0), range(5, 5), range(7, 3)):
        assert _raw_words(seed, first, first + trials, empty).shape == (trials, 0)
    # the runner replays a range draw block by block, from trial 0
    want = [SubStream(seed, t).raw(21)[5:].tolist() for t in range(trials)]
    for size in (1, 2, 3, 4):
        blocks = list(_blocks(trials, seed, 1, size, range(5, 21)))
        assert [len(b) for b in blocks] == [min(size, trials - s) for s in range(0, trials, size)]
        assert np.concatenate(blocks).tolist() == want, size


def test_raw_word_ranges_validate_inputs():
    for bad in (range(0, 8, 2), range(8, 0, -1), range(-1, 4)):
        with pytest.raises(ValueError):
            _raw_words(0, 0, 1, bad)


@pytest.mark.parametrize("m", _PHILOX_M)
def test_mulhilo_is_the_128_bit_product(m):
    edge = [0, 1, (1 << 32) - 1, 1 << 32, 1 << 63, (1 << 64) - 1]
    a = np.concatenate((np.array(edge, np.uint64), SubStream(m, 0).raw(1000)))
    hi, lo = _mulhilo(a, m)
    for x, h, l in zip(a.tolist(), hi.tolist(), lo.tolist()):
        assert (h, l) == divmod(x * m, 1 << 64), x


def test_raw_words_validate_inputs():
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError):
            SubStream(seed, 0)
        with pytest.raises(ValueError):
            _raw_words(seed, 0, 1, 4)
    with pytest.raises(ValueError):
        _raw_words(0, -1, 1, 4)


def test_bernoulli_mask_extremes():
    s = SubStream(1, 0)
    assert not s.bernoulli_mask(100, F(0)).any()
    assert s.bernoulli_mask(100, F(1)).all()


@pytest.mark.parametrize("p", [F(0), F(1), F(1, 3)])
def test_bernoulli_mask_takes_n_words_at_every_p(p):
    # the mask uses n words of the stream whatever p is, so the next draw
    # is the one that follows n raw words
    n, k = 37, 5
    s = SubStream(3, 2)
    s.bernoulli_mask(n, p)
    assert np.array_equal(s.raw(k), SubStream(3, 2).raw(n + k)[n:])


def test_bernoulli_mask_rate():
    hits = 0
    for t in range(40):
        hits += int(SubStream(9, t).bernoulli_mask(2500, F(1, 3)).sum())
    assert abs(hits / (40 * 2500) - 1 / 3) < 0.01


def test_bernoulli_mask_exact_threshold():
    # the acceptance threshold is floor(p * 2**64), no float rounding
    p = F(1, 3)
    s1 = SubStream(77, 3)
    u = s1.raw(1000)
    s2 = SubStream(77, 3)
    mask = s2.bernoulli_mask(1000, p)
    thr = (p.numerator << 64) // p.denominator
    assert np.array_equal(mask, u < np.uint64(thr))


def test_bits_and_symbols():
    s = SubStream(3, 1)
    bits = s.bits(1000)
    assert set(np.unique(bits)) <= {0, 1}
    sym = SubStream(3, 2).symbols_mod(1000, 5)
    assert sym.min() >= 0 and sym.max() < 5
    counts = np.bincount(SubStream(3, 3).symbols_mod(9000, 3), minlength=3)
    assert counts.min() > 2700  # roughly uniform
    # a power of two needs no rejection, so the stream stays where raw
    # would leave it; at q = 2 the values are those of bits (the erasure
    # trials rely on it)
    for q in (2, 4, 1 << 63):
        a, b = SubStream(5, q % 7), SubStream(5, q % 7)
        assert (a.symbols_mod(300, q) == b.raw(300) % np.uint64(q)).all()
        assert a.raw(3).tolist() == b.raw(3).tolist()
    assert (SubStream(9, 1).symbols_mod(500, 2) == SubStream(9, 1).bits(500)).all()


def test_symbols_mod_refuses_moduli_past_int64():
    # 2**63 is the largest modulus whose draws all fit the int64 output
    assert SubStream(5, 0).symbols_mod(1000, 1 << 63).min() >= 0
    for q in ((1 << 63) + 1, 3 << 62, 1 << 64, 1 << 65):
        with pytest.raises(ValueError):
            SubStream(5, 0).symbols_mod(10, q)
        with pytest.raises(ValueError):
            SubStream(5, 0).integer_below(q)


@pytest.mark.parametrize("seed", [0, 29, (1 << 64) - 1])
def test_trial_stream_moves_through_the_substreams(seed):
    # one generator moved from trial to trial draws exactly the words of
    # each trial's own substream, whatever the trial before it drew: word
    # counts that leave part of a Philox block unread, symbols_mod's
    # rejection at q = 3, and a start far along the trial counter
    def draws(stream, i):
        if i % 3 == 0:
            return [stream.raw(7), stream.symbols_mod(5, 3), stream.bernoulli_mask(6, F(1, 3))]
        if i % 3 == 1:
            return [stream.bits(1), stream.symbols_mod(41, 3)]
        return [stream.raw(4 * i), stream.symbols_mod(i, 8)]

    for start in (0, 1 << 40):
        moved = SubStream(seed, start)
        for i in range(12):
            if i:
                moved.next_trial()
            got, want = draws(moved, i), draws(SubStream(seed, start + i), i)
            assert [a.tolist() for a in got] == [b.tolist() for b in want], (start, i)
    for bad in (-1, 1 << 64):
        with pytest.raises(ValueError):
            SubStream(bad, 0)


def test_integer_below():
    for bound in (1, 2, 7, 100, 1 << 40):
        s = SubStream(11, bound % 97)
        vals = [s.integer_below(bound) for _ in range(50)]
        assert all(0 <= v < bound for v in vals)
    assert SubStream(11, 0).integer_below(1) == 0


def test_run_trials_thread_invariant():
    def trial(stream):
        return int(stream.raw(1)[0] & np.uint64(1))

    a = run_trials(1000, trial, seed=13, threads=1)
    b = run_trials(1000, trial, seed=13, threads=4)
    assert a == b
    assert len(a) == 1000


def test_run_trials_runs_in_order_on_the_calling_thread():
    seen = []

    def trial(stream):
        seen.append(threading.get_ident())
        return int(stream.raw(1)[0])

    a = run_trials(40, trial, seed=3, threads=1)
    b = run_trials(40, trial, seed=3, threads=4)
    assert a == b == [int(SubStream(3, t).raw(1)[0]) for t in range(40)]
    assert set(seen) == {threading.get_ident()}
    for bad in (0, -1):
        with pytest.raises(ValueError):
            run_trials(5, trial, seed=3, threads=bad)
        with pytest.raises(ValueError):
            run_trials(bad, trial, seed=3)
        # the runner refuses a bad run before its first draw, from either source
        for draw in (trial, 1):
            with pytest.raises(ValueError):
                next(_blocks(bad, 3, 1, 5, draw))
            with pytest.raises(ValueError):
                next(_blocks(5, 3, bad, 5, draw))
    assert len(seen) == 80


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_run_trials_moves_one_stream_through_fresh_substreams(seed):
    # one stream is moved from trial to trial, and each trial draws
    # exactly SubStream(seed, t)'s words whatever the trials before it
    # drew: raw words, bits and symbols_mod at q = 3 (the rejection path)
    def draws(stream, t):
        return [
            stream.raw(1 + t % 5).tolist(),
            stream.bits(3 + t % 4).tolist(),
            stream.symbols_mod(2 + t % 7, 3).tolist(),
        ]

    streams = []

    def trial(stream):
        streams.append(stream)
        return draws(stream, len(streams) - 1)

    want = [draws(SubStream(seed, t), t) for t in range(12)]
    assert run_trials(12, trial, seed) == want
    assert len(set(map(id, streams))) == 1
    # the runner's moved stream: consecutive blocks of at most size trials,
    # in order, all on the one stream
    for size in (1, 3, 11, 12, 13):
        streams.clear()
        blocks = list(_blocks(12, seed, 1, size, trial))
        assert [len(b) for b in blocks] == [min(size, 12 - s) for s in range(0, 12, size)]
        assert sum(blocks, []) == want, size
        assert len(set(map(id, streams))) == 1


def _run_with(name, trials, threads):
    """One small call of the simulator ``name``."""
    cm = check_matrix(8, F(1, 2), SelectionSpec.top(3))
    code = code_from_pcm(cm.matrix)
    runs = {
        "mec_error_rate": lambda: mec_error_rate(code, F(1, 4), trials, 1, threads),
        "bsc_error_rate": lambda: bsc_error_rate(code, F(1, 4), trials, 1, threads),
        "girth_scan": lambda: girth_scan(cm.matrix, ["1/4", "1/2"], trials, 1, threads),
        "full_rank_probability": lambda: full_rank_probability(cm, F(1, 2), trials, 1, threads),
        "support_failure_rate": lambda: support_failure_rate(cm.matrix, UniformSupport(2), trials, 1, threads),
        "run_trials": lambda: run_trials(trials, lambda stream: stream.raw(1), 1, threads),
    }
    return runs[name]()


@pytest.mark.parametrize(
    "name",
    ["mec_error_rate", "bsc_error_rate", "girth_scan", "full_rank_probability", "support_failure_rate", "run_trials"],
)
def test_every_run_needs_a_trial_and_a_thread(name):
    _run_with(name, 1, 1)
    for trials, threads in ((0, 1), (1, 0), (-1, 1), (1, -1)):
        with pytest.raises(ValueError):
            _run_with(name, trials, threads)


def test_run_trials_passes_distinct_streams():
    def trial(stream):
        return int(stream.raw(1)[0])

    vals = run_trials(50, trial, seed=2)
    assert len(set(vals)) == 50  # collisions would mean shared counters


def test_wilson_interval_frozen():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.03 < hi < 0.05
    lo1, hi1 = wilson_interval(100, 100)
    assert hi1 > 0.999 and 0.95 < lo1 < 0.97
    lo2, hi2 = wilson_interval(50, 100)
    assert math.isclose((lo2 + hi2) / 2, 0.5, abs_tol=0.001)
    assert lo2 < 0.5 < hi2


def test_wilson_interval_contains_estimate():
    for succ, total in [(1, 10), (3, 7), (250, 1000), (999, 1000)]:
        lo, hi = wilson_interval(succ, total)
        assert 0.0 <= lo <= succ / total <= hi <= 1.0


def test_trial_report():
    rep = TrialReport(trials=200, successes=50, seed=9)
    assert rep.estimate == 0.25
    lo, hi = rep.interval()
    assert lo < 0.25 < hi
    assert rep.interval() == wilson_interval(50, 200)
