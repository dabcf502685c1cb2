"""The benchmark's four workloads.

Each workload builds its inputs through highgirth's public functions,
measures for the run's length, and then checks what the program returned
against reference.py or against properties the method must have.
Nothing is compared with stored output.  README.md says why each
workload exists and which layers it loads.

Every timed section goes through clock.Clock, so times are in
calibrated seconds, and sections are kept short (tens of milliseconds
where the work allows) so that the calibration tracks the host's speed.
The trial workloads run rounds of two small blocks with the same block
seed, one at 1 thread and one at nproc threads (the order alternates),
and report the median throughput of each.  paper-construct runs rounds
of its whole operation list in sequence.  Every round is whole, so a run attempts a fixed multiple
of the same operations however long it lasts.  Peak memory is read
after set-up and the first round, which runs every operation once;
later rounds repeat them and add only allocator drift.
"""
from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np
from highgirth import channels, codec, construction, montecarlo, polarize

import reference as ref
from clock import Clock

# Width of the intervals the statistical checks use: two-sided 6e-7.  At
# 99.9% a correct program would fail one run in a thousand, and the
# per-trial replays already check every count exactly.
Z = 5.0

# block r of a run with --seed N uses seed N * SEED_STRIDE + r
SEED_STRIDE = 100_000


@dataclass(frozen=True)
class Context:
    seed: int
    seconds: float
    nproc: int
    import_s: float
    clock: Clock


class Outcome:
    """What a run attempted, measured and found wrong."""

    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.details: dict = {}

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def attempt(fn, *args, **kwargs):
    """(result, None), or (None, exception) with its traceback on stderr."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return None, exc


def each(clock: Clock, repeat: int, fn, *args, **kwargs):
    """(last result, calibrated seconds per call) of ``repeat`` calls timed
    as one section, so that a call of a millisecond is not timed alone."""

    def calls():
        for _ in range(repeat):
            result = fn(*args, **kwargs)
        return result

    result, secs, _ = clock.timed(calls)
    return result, secs / repeat


def kron_matrix(n: int, rows) -> np.ndarray:
    return np.array([ref.kron_row(n, i - 1) for i in rows], np.uint8).reshape(-1, n)


def check_construction(out: Outcome, label: str, cm, n: int, s: F, rows) -> None:
    """cm holds exactly ``rows`` of the Kronecker power, in order."""
    out.check(cm.n == n and cm.s == s, f"{label}: wrong n or s")
    out.check(tuple(cm.rows.indices) == tuple(rows), f"{label}: selected rows differ from the reference")
    dense = ref.unpack(cm.matrix.packed, n)
    want = kron_matrix(n, rows)
    out.check(
        dense.shape == want.shape and bool((dense == want).all()),
        f"{label}: a row differs from the Kronecker power",
    )


class TrialWorkload:
    """Set up several times, then run rounds of Monte Carlo blocks."""

    setups = 3
    block_trials = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.builds: list = []
        self.rounds: list = []  # (block seed, report at 1 thread, report at nproc)

    def build(self, clock: Clock):
        """(inputs, calibrated {"setup_s", "construct_s", "profile_s"})"""
        raise NotImplementedError

    def run_block(self, seed: int, threads: int):
        raise NotImplementedError

    def setup(self, out: Outcome) -> None:
        parts = []
        for _ in range(self.setups):
            made, timing = self.build(self.ctx.clock)
            parts.append(timing)
            self.builds.append(made)
            out.attempted += 1
        self.made = self.builds[0]
        for key in ("setup_s", "construct_s", "profile_s"):
            out.metrics[key] = statistics.median(p[key] for p in parts)
        out.metrics["setup_s"] += self.ctx.import_s

    def measure(self, out: Outcome) -> None:
        ctx, block = self.ctx, self.block_trials
        secs: dict[int, list[float]] = {1: [], ctx.nproc: []}
        start = time.perf_counter()
        while not self.rounds or time.perf_counter() - start < ctx.seconds:
            seed = ctx.seed * SEED_STRIDE + len(self.rounds)
            order = (1, ctx.nproc) if len(self.rounds) % 2 == 0 else (ctx.nproc, 1)
            reports = {}
            for threads in order:
                (reports[threads], err), elapsed, _ = ctx.clock.timed(attempt, self.run_block, seed, threads)
                out.attempted += block
                if err is None:
                    secs[threads].append(elapsed)
                else:
                    out.failed += block
            self.rounds.append((seed, reports[1], reports[ctx.nproc]))
            if len(self.rounds) == 1:
                out.metrics["peak_rss_mb"] = peak_rss_mb()
        out.metrics["trials_per_s"] = block / statistics.median(secs[1])
        out.metrics["trials_per_s_nproc"] = block / statistics.median(secs[ctx.nproc])
        out.details["block_trials"] = block
        out.details["block_seconds"] = {str(k): v for k, v in secs.items()}
        out.details["block_seeds"] = [r[0] for r in self.rounds]

    def whole_rounds(self, out: Outcome):
        """Rounds where both blocks ran; checks their reports are identical."""
        for seed, one, many in self.rounds:
            if one is None or many is None:
                continue
            out.check(one == many, f"block seed {seed}: reports differ between 1 and nproc threads")
            yield seed, one

    def check_setups(self, out: Outcome, same) -> None:
        out.check(
            all(same(self.made, b) for b in self.builds[1:]),
            "repeated set-ups built different inputs",
        )


class Erasure(TrialWorkload):
    """Criterion 7's code: n = 1024, top 614 rows at s = p = 2/5."""

    n, p, checks = 1024, F(2, 5), 614
    setups = 3
    block_trials = 4
    decoded_blocks = 8  # blocks whose trial 0 is replayed through the decoder

    def build(self, clock):
        spec = polarize.SelectionSpec.top(self.checks)
        cm, construct_s = each(clock, 4, construction.check_matrix, self.n, self.p, spec)
        code, code_s = each(clock, 1, codec.code_from_pcm, cm.matrix)
        bounds, profile_s = each(clock, 1, codec.channel_bounds, code, "mec", self.p, rows=cm.rows)
        return (cm, code, bounds), {
            "setup_s": construct_s + code_s + profile_s,
            "construct_s": construct_s,
            "profile_s": profile_s,
        }

    def run_block(self, seed, threads):
        _, code, bounds = self.made
        return codec.mec_error_rate(code, self.p, self.block_trials, seed, threads=threads, bounds=bounds)

    def check(self, out: Outcome) -> None:
        n, p = self.n, self.p
        cm, code, bounds = self.made
        self.check_setups(
            out,
            lambda a, b: a[0].rows == b[0].rows
            and a[0].matrix == b[0].matrix
            and a[1].gen_ints == b[1].gen_ints
            and a[2] == b[2],
        )
        rows = ref.top_rows(n, p, self.checks)
        check_construction(out, self.__class__.__name__, cm, n, p, rows)
        h = kron_matrix(n, rows)
        cols = ref.column_ints(h)
        gen = np.array([ref.int_bits(g, n) for g in code.gen_ints])
        out.check(
            code.k == n - self.checks
            and ref.gf2_rank(code.gen_ints) == code.k
            and not ((h.astype(np.int64) @ gen.T.astype(np.int64)) & 1).any(),
            "generator rows are not a basis of the kernel",
        )
        ceiling = min(F(1), ref.unselected_sum(n, p, rows))
        out.check(F(bounds["bhatt"]) == ceiling, "bhatt bound differs from the reference leaf sum")

        thr = np.uint64(ref.below(p))
        failures = trials = 0
        for r, (seed, rep) in enumerate(self.whole_rounds(out)):
            out.check(
                rep["trials"] == self.block_trials
                and rep["mismatches"] == 0
                and rep["failures"] == rep["dependence_events"],
                f"block seed {seed}: decoder and oracle disagree",
            )
            dependent = 0
            for t in range(self.block_trials):
                erased = np.nonzero(ref.philox_words(seed, t, code.k + n)[code.k :] < thr)[0]
                dependent += ref.gf2_rank(cols[j] for j in erased) < len(erased)
            out.check(dependent == rep["failures"], f"block seed {seed}: failures differ from the reference rank")
            if r < self.decoded_blocks:
                self.check_decoded(out, code, h, cols, seed, 0)
            failures += rep["failures"]
            trials += rep["trials"]
        lo, hi = ref.wilson(failures, trials, Z)
        out.details.update(failures=failures, trials=trials, interval=[lo, hi], ceiling=float(ceiling))
        out.check(lo <= ceiling, f"failure rate {failures}/{trials} lies above the certified ceiling")

    def check_decoded(self, out, code, h, cols, seed, t) -> None:
        """Replay trial t through the public API and check the decoded word."""
        stream = montecarlo.SubStream(seed, t)
        sent = codec.encode(code, stream.bits(code.k))
        received = channels.mec_transmit(code.field, sent, self.p, stream)
        res = codec.mec_decode(code, received)
        erased = np.nonzero(ref.philox_words(seed, t, code.k + self.n)[code.k :] < np.uint64(ref.below(self.p)))[0]
        label = f"block seed {seed} trial {t}"
        out.check(
            tuple(received.flagged.zero_based()) == tuple(erased.tolist()),
            f"{label}: erased positions differ from the replay",
        )
        h64 = h.astype(np.int64)
        out.check(not ((h64 @ np.asarray(sent, np.int64)) & 1).any(), f"{label}: sent word is not a codeword")
        independent = ref.gf2_rank(cols[j] for j in erased) == len(erased)
        out.check((res.status == "decoded") == independent, f"{label}: decoder verdict differs from the reference rank")
        if res.status == "decoded":
            word = np.asarray(res.codeword, np.int64)
            out.check(
                not ((h64 @ word) & 1).any() and bool((word == np.asarray(sent)).all()),
                f"{label}: decoded word is wrong",
            )


class Crossing(TrialWorkload):
    """Criterion 10's code: n = 16, top 12 rows at s = bhattacharyya_upper(1/20)."""

    n, p, checks = 16, F(1, 20), 12
    setups = 12
    block_trials = 512

    def build(self, clock):
        z, z_s = each(clock, 20, channels.bhattacharyya_upper, self.p)
        spec = polarize.SelectionSpec.top(self.checks)
        cm, construct_s = each(clock, 20, construction.check_matrix, self.n, z, spec)
        code, code_s = each(clock, 20, codec.code_from_pcm, cm.matrix)
        bounds, profile_s = each(clock, 20, codec.channel_bounds, code, "bsc", self.p, rows=cm.rows)
        return (z, cm, code, bounds), {
            "setup_s": z_s + construct_s + code_s + profile_s,
            "construct_s": construct_s,
            "profile_s": profile_s,
        }

    def run_block(self, seed, threads):
        _, _, code, bounds = self.made
        return codec.bsc_error_rate(code, self.p, self.block_trials, seed, threads=threads, bounds=bounds)

    def check(self, out: Outcome) -> None:
        n, p = self.n, self.p
        z, cm, code, bounds = self.made
        self.check_setups(
            out,
            lambda a, b: a[0] == b[0]
            and a[1].rows == b[1].rows
            and a[1].matrix == b[1].matrix
            and a[2].gen_ints == b[2].gen_ints
            and a[3] == b[3],
        )
        out.check(z <= 1 and z * z >= 4 * p * (1 - p), "bhattacharyya_upper is below 2*sqrt(p(1-p))")
        rows = ref.top_rows(n, z, self.checks)
        check_construction(out, self.__class__.__name__, cm, n, z, rows)
        h = kron_matrix(n, rows)
        span = {0}
        for g in code.gen_ints:
            span |= {g ^ w for w in span}
        out.check(sorted(span) == ref.codewords(h).tolist(), "generator does not span the code")
        counts = ref.weight_counts(h)
        union = min(F(1), sum((c * z**w for w, c in enumerate(counts) if w), F(0)))
        bhatt = min(F(1), ref.unselected_sum(n, z, rows))
        out.check(F(bounds["union"]) == union, "union bound differs from the reference weight counts")
        out.check(F(bounds["bhatt"]) == bhatt, "bhatt bound differs from the reference leaf sum")

        fails = ref.ml_failures(h)
        exact = ref.block_error(h, p)
        thr = np.uint64(ref.below(p))
        weights = 1 << np.arange(n, dtype=np.int64)
        errors = trials = 0
        for seed, rep in self.whole_rounds(out):
            replay = 0
            for t in range(self.block_trials):
                flips = ref.philox_words(seed, t, code.k + n)[code.k :] < thr
                replay += fails[int(weights @ flips)]
            out.check(
                rep["trials"] == self.block_trials and replay == rep["failures"],
                f"block seed {seed}: errors differ from the exhaustive ML replay",
            )
            errors += rep["failures"]
            trials += rep["trials"]
        lo, hi = ref.wilson(errors, trials, Z)
        lo95, hi95 = ref.wilson(errors, trials, 1.96)
        half = (hi95 - lo95) / 2
        rate = errors / trials
        out.details.update(errors=errors, trials=trials, interval=[lo, hi], exact=float(exact))
        out.check(lo <= exact <= hi, f"error rate {errors}/{trials} excludes the exact ML value {float(exact):.6f}")
        out.check(
            rate <= float(union) + 3 * half and rate <= float(bhatt) + 3 * half,
            "error rate above a certified bound",
        )


class GirthScan(TrialWorkload):
    """Criterion 6: scan n = 256, top 102 rows at s = 1/2."""

    n, s, checks = 256, F(1, 2), 102
    grid = tuple(F(k, 100) for k in range(10, 55, 5)) + (F(60, 100), F(65, 100))
    setups = 7
    block_trials = 8

    def build(self, clock):
        spec = polarize.SelectionSpec.top(self.checks)
        cm, construct_s = each(clock, 4, construction.check_matrix, self.n, self.s, spec)
        timed = [each(clock, 1, polarize.bhattacharyya_sum, self.n, p, cm.rows) for p in self.grid]
        profile_s = sum(t[1] for t in timed)
        return (cm, [t[0] for t in timed]), {
            "setup_s": construct_s + profile_s,
            "construct_s": construct_s,
            "profile_s": profile_s,
        }

    def run_block(self, seed, threads):
        cm, _ = self.made
        return construction.girth_scan(cm.matrix, self.grid, self.block_trials, seed, threads=threads)

    def check(self, out: Outcome) -> None:
        n, grid = self.n, self.grid
        cm, sums = self.made
        self.check_setups(
            out, lambda a, b: a[0].rows == b[0].rows and a[0].matrix == b[0].matrix and a[1] == b[1]
        )
        rows = ref.top_rows(n, self.s, self.checks)
        check_construction(out, self.__class__.__name__, cm, n, self.s, rows)
        out.check(
            sums == [ref.unselected_sum(n, p, rows) for p in grid],
            "bhattacharyya_sum differs from the reference leaf sum",
        )
        floors = [max(F(0), 1 - x) for x in sums]
        ceilings = [ref.binomial_cdf(n, p, self.checks) for p in grid]
        cols = ref.column_ints(kron_matrix(n, rows))
        thresholds = [np.uint64(ref.below(p)) for p in grid]
        successes = [0] * len(grid)
        trials = 0
        for seed, rep in self.whole_rounds(out):
            counts = [0] * len(grid)
            for t in range(self.block_trials):
                u = ref.philox_words(seed, t, n)
                order = np.argsort(u, kind="stable")
                # sampled sets are prefixes of this order, nested in the rate
                longest = ref.independent_prefix(cols[j] for j in order[: self.checks + 1])
                for g, thr in enumerate(thresholds):
                    counts[g] += int((u < thr).sum()) <= longest
            out.check(
                [r.trials for r in rep.estimates] == [self.block_trials] * len(grid)
                and [r.successes for r in rep.estimates] == counts,
                f"block seed {seed}: independence counts differ from the reference",
            )
            successes = [a + b for a, b in zip(successes, counts)]
            trials += self.block_trials
        rates = [c / trials for c in successes]
        low = [g for g in range(len(grid)) if floors[g] >= F(19, 20)]
        high = [g for g in range(len(grid)) if ceilings[g] <= F(1, 20)]
        intervals = [ref.wilson(c, trials, Z) for c in successes]
        out.details.update(trials=trials, rates=rates, floors=[float(f) for f in floors], ceilings=[float(c) for c in ceilings])
        out.check(all(a >= b for a, b in zip(rates, rates[1:])), "independence rate rises along the grid")
        out.check(
            bool(low) and bool(high)
            and max(grid[g] for g in low) < F(self.checks, n) < min(grid[g] for g in high),
            "certified bands do not bracket the row rate",
        )
        out.check(all(rates[g] >= 0.95 for g in low), "rate below 0.95 on the certified low band")
        out.check(all(rates[g] <= 0.05 for g in high), "rate above 0.05 on the counting high band")
        out.check(
            all(lo <= c and hi >= f for (lo, hi), f, c in zip(intervals, floors, ceilings)),
            "an interval misses [floor, ceiling]",
        )


class PaperConstruct:
    """The paper's selection rule on a ladder of sizes, plus exact profiles.

    check_matrix and rank_profile take no thread count, so a caller who
    asks for nproc threads gets the sequential speed: trials_per_s_nproc
    reports the same pass as trials_per_s.
    """

    ladder = tuple((1 << e, s) for e in range(10, 14) for s in (F(1, 2), F(2, 5)))
    profiles = tuple((4096, s) for s in (F(1, 2), F(2, 5)))
    setups = 5

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.first = None  # outputs of the first pass

    def build(self):
        spec = polarize.SelectionSpec.auto()
        ops = [(construction.check_matrix, n, s, spec) for n, s in self.ladder]
        return ops + [(polarize.rank_profile, n, s) for n, s in self.profiles]

    def setup(self, out: Outcome) -> None:
        totals = []
        for _ in range(self.setups):
            self.ops, secs, _ = self.ctx.clock.timed(self.build)
            totals.append(secs)
        out.metrics["setup_s"] = self.ctx.import_s + statistics.median(totals)

    def measure(self, out: Outcome) -> None:
        ctx, ops = self.ctx, self.ops
        construct, profile, passes = [], [], []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < ctx.seconds:
            timed = [ctx.clock.timed(attempt, *op) for op in ops]
            secs = [t[1] for t in timed]
            construct.append(sum(secs[: len(self.ladder)]))
            profile.append(sum(secs[len(self.ladder) :]))
            passes.append(sum(secs))
            out.attempted += len(ops)
            out.failed += sum(err is not None for (_, err), _, _ in timed)
            self.compare(out, [result for (result, _), _, _ in timed])
            del timed
            if len(passes) == 1:
                out.metrics["peak_rss_mb"] = peak_rss_mb()
        out.metrics["construct_s"] = statistics.median(construct)
        out.metrics["profile_s"] = statistics.median(profile)
        out.metrics["trials_per_s"] = out.metrics["trials_per_s_nproc"] = len(ops) / statistics.median(passes)
        out.details["rounds"] = len(passes)

    def compare(self, out: Outcome, results) -> None:
        """Keep the first pass's outputs; later passes must equal them."""
        if self.first is None:
            self.first = results
            return
        for (fn, n, s, *_), a, b in zip(self.ops, self.first, results):
            if a is None or b is None:
                continue
            same = a == b if fn is polarize.rank_profile else a.rows == b.rows and a.matrix == b.matrix
            out.check(same, f"{fn.__name__}({n}, {s}) changed between passes")

    def check(self, out: Outcome) -> None:
        outputs = self.first or [None] * len(self.ops)
        for (n, s), cm in zip(self.ladder, outputs):
            if cm is None:
                continue
            e = ref.paper_exponent(n)
            label = f"check_matrix({n}, {s}, auto)"
            out.check(cm.selection.threshold == 1 - F(1, 1 << e), f"{label}: threshold is not 1 - 2**-ceil(n**0.49)")
            check_construction(out, label, cm, n, s, ref.threshold_rows(n, s, e))
        for (n, s), prof in zip(self.profiles, outputs[len(self.ladder) :]):
            if prof is None:
                continue
            d = ref.denominator(n, s)
            nums = list(ref.leaves(n, s))
            out.check(
                len(prof) == n and all(v.numerator * d == a * v.denominator for v, a in zip(prof, nums)),
                f"rank_profile({n}, {s}) differs from the reference leaves",
            )
            out.check(sum(nums) * s.denominator == n * s.numerator * d, f"rank_profile({n}, {s}) does not sum to n*s")


WORKLOADS = {
    "erasure-1024": Erasure,
    "crossing-16": Crossing,
    "paper-construct": PaperConstruct,
    "girth-scan-256": GirthScan,
}
