"""Command line interface.

Exit codes: 0 on success, 1 when an analysis reaches a negative verdict
(dependent columns found, oracle disagreement, recovery not unique),
2 on usage or input errors, 3 when an enumeration budget is exceeded.

Subcommands:
  profile       write a profile CSV for (n, s)
  construct     build a check matrix and its sidecar recipe
  simulate mec  Monte Carlo erasure decoding with the rank oracle
  simulate bsc  Monte Carlo ML decoding on the crossing channel
  analyze girth-scan | oracle-check | spark | bound | l0
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .codec import (
    bsc_error_rate,
    channel_bounds,
    code_from_pcm,
    mec_error_rate,
    tail_dominated,
    weight_enumerator,
)
from .construction import (
    check_matrix,
    exhaustive_rank_profile,
    girth_scan,
    read_check_matrix,
    write_check_matrix,
    write_scan_csv,
)
from .fields import (
    EnumerationBudget,
    FieldSpec,
    _write_text,
    as_fraction,
    parse_probability,
    read_matrix,
)
from .polarize import (
    SelectionSpec,
    compute_profile,
    polarization_fractions,
    rank_profile,
    write_profile_csv,
)
from .sparse import l0_recover, spark_certificate

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

EXACT_PROFILE_MANDATORY = 1 << 8
EXACT_PROFILE_DEFAULT_CAP = 1 << 10


def _default_threads() -> int:
    raw = os.environ.get("HIGHGIRTH_THREADS", "1")
    try:
        t = int(raw)
    except ValueError:
        return 1
    return max(1, t)


def _emit(report: dict, json_path: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    sys.stdout.write(text)
    if json_path:
        _write_text(json_path, text)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_profile(args) -> int:
    n = args.n
    if args.float_mode:
        if n <= EXACT_PROFILE_MANDATORY:
            raise ValueError(
                f"exact mode is mandatory for n <= {EXACT_PROFILE_MANDATORY}"
            )
        exact = False
    elif args.exact_mode:
        exact = True
    else:
        exact = n <= EXACT_PROFILE_DEFAULT_CAP
    prof = compute_profile(n, args.s, exact=exact)
    write_profile_csv(prof.values, prof.exact, args.out or sys.stdout)
    if args.delta is not None:
        lo, mid, hi = polarization_fractions(prof.values, args.delta)
        sys.stderr.write(
            f"fractions at delta={args.delta}: low={lo} ({float(lo):.6g}) "
            f"mid={mid} ({float(mid):.6g}) high={hi} ({float(hi):.6g})\n"
        )
    return EXIT_OK


def _cmd_construct(args) -> int:
    spec = SelectionSpec.parse(args.select)
    field = FieldSpec.parse(args.field)
    cm = check_matrix(args.n, args.s, spec, field)
    write_check_matrix(cm, args.out)
    sys.stderr.write(
        f"wrote {cm.nchecks} x {cm.n} check matrix over {cm.field} "
        f"(selection {cm.selection}) to {args.out}\n"
    )
    return EXIT_OK


def _load_check(path: str):
    """Returns (matrix, CheckMatrix-or-None)."""
    if os.path.exists(path + ".json"):
        cm = read_check_matrix(path)
        return cm.matrix, cm
    return read_matrix(path), None


def _cmd_simulate_mec(args) -> int:
    m, cm = _load_check(args.pcm)
    code = code_from_pcm(m)
    rows = cm.rows if cm is not None else None
    selection = cm.selection.name() if cm is not None else None
    bounds = channel_bounds(code, "mec", args.p, rows)
    report = mec_error_rate(
        code, args.p, args.trials, args.seed, args.threads, selection, bounds
    )
    _emit(report, args.out)
    if report["mismatches"]:
        sys.stderr.write(
            f"error: decoder and rank oracle disagreed on "
            f"{report['mismatches']} trial(s)\n"
        )
        return EXIT_ANALYSIS
    return EXIT_OK


def _cmd_simulate_bsc(args) -> int:
    m, cm = _load_check(args.pcm)
    code = code_from_pcm(m)
    rows = cm.rows if cm is not None else None
    selection = cm.selection.name() if cm is not None else None
    bounds = channel_bounds(code, "bsc", args.p, rows, args.budget)
    report = bsc_error_rate(
        code, args.p, args.trials, args.seed, args.threads, args.budget,
        selection, bounds,
    )
    _emit(report, args.out)
    return EXIT_OK


def _parse_grid(text: str) -> list[Fraction]:
    vals = [parse_probability(tok, "grid rate") for tok in text.split(",") if tok.strip()]
    if not vals:
        raise ValueError("empty grid")
    return vals


def _cmd_girth_scan(args) -> int:
    m, _ = _load_check(args.matrix)
    res = girth_scan(m, _parse_grid(args.grid), args.trials, args.seed, args.threads)
    write_scan_csv(res, args.out or sys.stdout)
    return EXIT_OK


_ORACLE_S = ("1/2", "1/3", "3/4")
_ORACLE_FIELDS = ("gf2", "gfp:3", "gfp:5", "rational")


def _cmd_oracle_check(args) -> int:
    nmax = args.nmax
    if nmax < 2:
        raise ValueError("need nmax >= 2")
    if nmax > 12:
        raise ValueError("oracle check enumerates 2**n subsets; nmax is capped at 12")
    sizes = [n for n in (2, 4, 8) if n <= nmax]
    sys.stdout.write(f"{'n':>3}  {'s':>4}  {'field':<8}  {'E[rank]':<12}  verdict\n")
    for n in sizes:
        for s_text in _ORACLE_S:
            prof = rank_profile(n, s_text)
            for field_text in _ORACLE_FIELDS:
                field = FieldSpec.parse(field_text)
                inc = exhaustive_rank_profile(n, s_text, field)
                total = sum(inc)
                bad = next((i for i in range(n) if inc[i] != prof[i]), None)
                verdict = "ok" if bad is None else f"MISMATCH leaf {bad + 1}"
                sys.stdout.write(
                    f"{n:>3}  {s_text:>4}  {field_text:<8}  {str(total):<12}  {verdict}\n"
                )
                if bad is not None:
                    sys.stderr.write(
                        f"mismatch: n={n} s={s_text} field={field_text} leaf "
                        f"{bad + 1}: recursion {prof[bad]}, enumeration {inc[bad]}\n"
                    )
                    return EXIT_ANALYSIS
    return EXIT_OK


def _cmd_spark(args) -> int:
    m, _ = _load_check(args.matrix)
    res = spark_certificate(m, args.k, args.budget)
    if res.status == "certified":
        sys.stdout.write(
            f"certified: every {2 * args.k}-column subset is independent "
            f"({res.tested} subsets tested); {args.k}-sparse recovery is unique\n"
        )
        return EXIT_OK
    if res.status == "refuted":
        cols = ",".join(str(i) for i in res.witness)
        sys.stdout.write(
            f"refuted: columns {cols} are dependent "
            f"(size {len(res.witness)} <= {2 * args.k})\n"
        )
        return EXIT_ANALYSIS
    sys.stderr.write(
        f"budget: undecided for k={args.k} after {res.tested} subset tests "
        f"(budget {args.budget}); raise --budget or lower --k\n"
    )
    return EXIT_BUDGET


def _cmd_bound(args) -> int:
    m, cm = _load_check(args.pcm)
    code = code_from_pcm(m)
    enum = weight_enumerator(code, args.budget)
    rows = cm.rows if cm is not None else None
    bounds = channel_bounds(code, "bsc", args.p, rows, args.budget)
    d = enum.min_distance
    report = {
        "code": {
            "n": code.n,
            "k": code.k,
            "field": code.field.name(),
            "selection": cm.selection.name() if cm is not None else None,
        },
        "p": str(parse_probability(args.p, "p")),
        "min_distance": d,
        "bounds": bounds,
        "tail_dominated_at_min_distance": (
            tail_dominated(d, args.p) if d is not None else None
        ),
    }
    _emit(report, args.out)
    return EXIT_OK


def _parse_vector_arg(text: str) -> list:
    return [as_fraction(tok, "y entry") for tok in text.split(",") if tok.strip()]


def _cmd_l0(args) -> int:
    m, _ = _load_check(args.matrix)
    y = _parse_vector_arg(args.y)
    if len(y) != m.nrows:
        raise ValueError(f"y has {len(y)} entries, matrix has {m.nrows} rows")
    res = l0_recover(m, y, args.kmax, args.budget)
    report = {
        "status": res.status,
        "tested": res.tested,
        "kmax": args.kmax,
    }
    if res.status == "unique":
        report["support"] = list(res.signal.support.indices)
        report["values"] = [str(v) for v in res.signal.values]
    elif res.status == "not_unique":
        report["witnesses"] = [list(w.indices) for w in res.witnesses]
    _emit(report, args.out)
    if res.status == "budget":
        sys.stderr.write(
            f"budget: search stopped after {res.tested} supports "
            f"(budget {args.budget}, kmax {args.kmax})\n"
        )
        return EXIT_BUDGET
    return EXIT_OK if res.status == "unique" else EXIT_ANALYSIS


# ---------------------------------------------------------------------------
# argument tree


def _add_threads(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--threads",
        type=int,
        default=_default_threads(),
        help="accepted for compatibility; trials run in order on one thread, "
        "so the count changes neither output nor speed (default from "
        "HIGHGIRTH_THREADS, else 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="highgirth",
        description="High-girth check matrices from rank polarization: "
        "exact construction, channel simulation, sparse recovery.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="write a profile CSV for (n, s)")
    p.add_argument("--n", type=int, required=True, help="transform size, power of two")
    p.add_argument("--s", required=True, help="rate in [0,1], exact: '2/5' or '0.4'")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument(
        "--exact", dest="exact_mode", action="store_true",
        help="exact rational leaves (default up to n=1024)",
    )
    grp.add_argument(
        "--float", dest="float_mode", action="store_true",
        help="float64 leaves; refused for n <= 256 where exact is mandatory",
    )
    p.add_argument("--delta", default=None, help="also report low/mid/high fractions")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("construct", help="build a check matrix with sidecar recipe")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", required=True)
    p.add_argument(
        "--select",
        default="auto",
        help="auto | paper | top:<m> | thr:<t> (paper is an alias of auto)",
    )
    p.add_argument("--field", default="gf2", help="gf2 | gfp:<p> | rational")
    p.add_argument("--out", required=True, help="matrix path; sidecar at <out>.json")
    p.set_defaults(fn=_cmd_construct)

    sim = sub.add_parser("simulate", help="Monte Carlo channel simulations")
    simsub = sim.add_subparsers(dest="channel", required=True)

    p = simsub.add_parser("mec", help="erasure channel, syndrome decoding")
    p.add_argument("--pcm", required=True, help="check matrix path")
    p.add_argument("--p", required=True, help="erasure rate")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="also write the report here")
    _add_threads(p)
    p.set_defaults(fn=_cmd_simulate_mec)

    p = simsub.add_parser("bsc", help="crossing channel, brute-force ML decoding")
    p.add_argument("--pcm", required=True, help="check matrix path")
    p.add_argument("--p", required=True, help="crossover rate")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=int, default=1 << 20, help="codeword enumeration cap")
    p.add_argument("--out", default=None)
    _add_threads(p)
    p.set_defaults(fn=_cmd_simulate_bsc)

    an = sub.add_parser("analyze", help="exact and sampled structure checks")
    ansub = an.add_subparsers(dest="analysis", required=True)

    p = ansub.add_parser("girth-scan", help="independence rate of sampled columns")
    p.add_argument("--matrix", required=True)
    p.add_argument("--grid", required=True, help="comma-separated rates, ascending")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    _add_threads(p)
    p.set_defaults(fn=_cmd_girth_scan)

    p = ansub.add_parser(
        "oracle-check",
        help="recursion vs exhaustive enumeration over sizes, rates, fields",
    )
    p.add_argument("--nmax", type=int, required=True, help="largest n to check, capped at 12")
    p.set_defaults(fn=_cmd_oracle_check)

    p = ansub.add_parser("spark", help="certify unique k-sparse recovery")
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True, help="target sparsity")
    p.add_argument("--budget", type=int, default=1 << 22, help="subset test cap")
    p.set_defaults(fn=_cmd_spark)

    p = ansub.add_parser("bound", help="weight enumerator and error bounds")
    p.add_argument("--pcm", required=True, help="check matrix path")
    p.add_argument("--p", required=True, help="crossover rate")
    p.add_argument("--budget", type=int, default=1 << 20)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_bound)

    p = ansub.add_parser("l0", help="exact minimum-support recovery")
    p.add_argument("--matrix", required=True)
    p.add_argument("--y", required=True, help="comma-separated measurement entries")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--budget", type=int, default=1 << 22, help="support test cap")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_l0)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except EnumerationBudget as exc:
        sys.stderr.write(f"budget: {exc}\n")
        return EXIT_BUDGET
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
