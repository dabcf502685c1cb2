"""The highgirth functions a traced run wraps, and the per-layer metrics
derived from their spans.

Each entry names the span, the attribute, and every module that holds
the function under that attribute: ``codec`` imports ``solve_full``,
``columns_independent``, ``select_columns``, ``matvec``, ``kernel``, the
channels and ``run_trials`` by name; ``construction`` imports
``rank_packed``, ``select_rows_fast`` and ``run_trials`` by name; the
rest are looked up as module globals at call time.  ``_gf2core`` spans
are named ``gf2core.*`` because metric names start with a letter.
"""
from __future__ import annotations

from fractions import Fraction

from highgirth import _gf2core, channels, codec, construction, fields, montecarlo, polarize

SHARE = "polarize.exact_leaf_share."


def _size_rate(n, s, *_, **__) -> str:
    s = Fraction(s)
    return f"n{n}_s{s.numerator}_{s.denominator}"


WRAPPED = (
    ("fields.solve_full", "solve_full", (fields, codec), {}),
    ("fields.columns_independent", "columns_independent", (fields, codec), {}),
    ("fields.select_columns", "select_columns", (fields, codec), {}),
    ("fields.matvec", "matvec", (fields, codec), {}),
    ("fields.kernel", "kernel", (fields, codec), {}),
    ("gf2core.solve_packed", "solve_packed", (_gf2core,), {}),
    ("gf2core.echelon", "echelon", (_gf2core,), {}),
    ("gf2core.rank_packed", "rank_packed", (_gf2core, construction), {}),
    ("polarize.rank_profile", "rank_profile", (polarize,), {}),
    ("polarize.rank_profile_float", "rank_profile_float", (polarize,), {}),
    ("polarize.profile_leaf", "profile_leaf", (polarize,), {}),
    ("polarize.select_rows_fast", "select_rows_fast", (polarize, construction), {"tag": _size_rate}),
    ("polarize.bhattacharyya_sum", "bhattacharyya_sum", (polarize,), {}),
    ("construction.sierpinski_row", "sierpinski_row", (construction,), {}),
    ("construction.check_matrix", "check_matrix", (construction,), {}),
    ("construction.girth_scan", "girth_scan", (construction,), {}),
    ("codec.code_from_pcm", "code_from_pcm", (codec,), {}),
    ("codec.channel_bounds", "channel_bounds", (codec,), {}),
    ("codec.encode", "encode", (codec,), {}),
    ("codec.mec_decode", "mec_decode", (codec,), {}),
    ("codec.ml_decode_bsc", "ml_decode_bsc", (codec,), {}),
    ("channels.mec_transmit", "mec_transmit", (channels, codec), {"observe": lambda out: len(out.flagged)}),
    ("channels.bsc_transmit", "bsc_transmit", (channels, codec), {}),
    ("montecarlo.SubStream", "SubStream", (montecarlo,), {}),
    ("montecarlo.run_trials", "run_trials", (montecarlo, codec, construction), {"root": True}),
)


def install(tracer) -> None:
    for name, attr, modules, options in WRAPPED:
        tracer.install(name, attr, modules, **options)


def metrics(tracer, names) -> dict[str, float]:
    """Values of the per-layer metrics ``names`` from the tracer's spans.

    ``.calls`` counts calls and ``.s`` sums self time over the run.  A
    function the workload never calls reads 0.
    """
    found: dict[str, float] = {}
    for span, (calls, secs) in tracer.totals().items():
        found[f"{span}.calls"] = calls
        found[f"{span}.s"] = secs
    trials = tracer.count_under("montecarlo.SubStream", "construction.girth_scan")
    ranks = tracer.count_under("gf2core.rank_packed", "construction.girth_scan")
    found["construction.girth_scan.rank_calls_per_trial"] = ranks / trials if trials else 0.0
    erased = tracer.observed["channels.mec_transmit"]
    found["channels.mec_transmit.erased_mean"] = sum(erased) / len(erased) if erased else 0.0
    shares = tracer.children_by_parent_tag("polarize.profile_leaf", "polarize.select_rows_fast")
    for tag, (calls, exact) in shares.items():
        n = int(tag.split("_")[0][1:])
        found[SHARE + tag] = exact / (n * calls)
    return {name: found.get(name, 0.0) if name.startswith(SHARE) else found[name] for name in names}
